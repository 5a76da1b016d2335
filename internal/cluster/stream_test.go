package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nestless/internal/ctrace"
	"nestless/internal/golden"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// churnUsers generates a quantized churny population: arrival and end
// instants truncated to the trace formats' microsecond resolution, so
// the Pods workload and the event stream describe the same instants.
func churnUsers(t *testing.T, seed int64, n int) []trace.User {
	t.Helper()
	gcfg := trace.DefaultConfig(seed)
	gcfg.Users = n
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	users := trace.Generate(gcfg)
	for i := range users {
		for j := range users[i].Pods {
			p := &users[i].Pods[j]
			a := p.Arrival - p.Arrival%time.Microsecond
			if p.Lifetime > 0 {
				end := p.Arrival + p.Lifetime
				end -= end % time.Microsecond
				p.Lifetime = end - a
			}
			p.Arrival = a
		}
	}
	return users
}

// flatten merges all users' pods into one workload.
func flatten(users []trace.User) []trace.Pod {
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	return pods
}

// TestSimulateSourceMatchesPods pins the streaming feed against the
// Pods path on a workload where their departure semantics coincide:
// BootDelay 0 and ample capacity place every pod at its arrival
// instant, so lifetime-after-placement equals the trace's absolute end
// time. Same instants, same counters, same cost, same trajectory.
func TestSimulateSourceMatchesPods(t *testing.T) {
	users := churnUsers(t, 21, 30)
	for _, policy := range []Policy{Kubernetes, Hostlo} {
		cfg := Config{
			Policy:    policy,
			Seed:      5,
			Horizon:   8 * time.Hour,
			BootDelay: 0,
		}
		pcfg := cfg
		pcfg.Pods = flatten(users)
		want := Simulate(pcfg)
		got, err := SimulateSource(cfg, ctrace.NewSynth(users))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: stream diverged from Pods run:\n got %+v\nwant %+v", policy, got, want)
		}
	}
}

// TestStreamLeakFree audits the streaming books directly: feed, run,
// then run the leak checker, including an end event that catches its
// pod still pending (huge BootDelay keeps the queue backed up).
//
// The run's Result and text telemetry are pinned in
// testdata/reference_stream.golden as the linear-scan reference
// produced them.
func TestStreamLeakFree(t *testing.T) {
	rec := telemetry.New()
	cfg := Config{
		Policy:    Kubernetes,
		Horizon:   2 * time.Hour,
		BootDelay: 30 * time.Minute, // pods wait; ends hit pending pods
		Rec:       rec,
	}
	c := New(cfg)
	c.Start()
	evs := []ctrace.Event{
		{Time: 1 * time.Minute, Kind: ctrace.Submit, Pod: "a", User: "u1",
			Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}},
		{Time: 2 * time.Minute, Kind: ctrace.Submit, Pod: "b", User: "u1",
			Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}}},
		{Time: 5 * time.Minute, Kind: ctrace.Kill, Pod: "b", User: "u1"}, // still pending
		{Time: 90 * time.Minute, Kind: ctrace.Finish, Pod: "a", User: "u1"},
	}
	for _, ev := range evs {
		if err := c.FeedEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(sim.Time(cfg.Horizon))
	res := c.Finish()
	if leaks := c.Leaks(); len(leaks) > 0 {
		t.Fatalf("leaks: %v", leaks)
	}
	if res.Arrived != 2 || res.Departed != 2 {
		t.Fatalf("result: %+v", res)
	}
	var buf bytes.Buffer
	if err := rec.WriteTextTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/reference_stream.golden", []string{
		fmt.Sprintf("stream result=%s trace=%s", golden.Digest(t, res), golden.SHA256(buf.String())),
	})
}

// TestStreamFeedValidation exercises the feed-order and duplicate
// guards.
func TestStreamFeedValidation(t *testing.T) {
	c := New(Config{Horizon: time.Hour})
	if err := c.FeedEvent(ctrace.Event{Kind: ctrace.Submit, Pod: "x"}); err == nil {
		t.Fatal("FeedEvent before Start accepted")
	}
	c.Start()
	sub := ctrace.Event{Time: time.Minute, Kind: ctrace.Submit, Pod: "x",
		Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}}
	if err := c.FeedEvent(sub); err != nil {
		t.Fatal(err)
	}
	if err := c.FeedEvent(sub); err == nil {
		t.Fatal("duplicate submit accepted")
	}
	c.Advance(sim.Time(10 * time.Minute))
	late := ctrace.Event{Time: 5 * time.Minute, Kind: ctrace.Submit, Pod: "y",
		Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}}
	if err := c.FeedEvent(late); err == nil {
		t.Fatal("event behind the clock accepted")
	}
	// Unknown end: ignored, not an error.
	if err := c.FeedEvent(ctrace.Event{Time: 20 * time.Minute, Kind: ctrace.Finish, Pod: "ghost"}); err != nil {
		t.Fatal(err)
	}
}

// TestTransferRoundTrip moves a pending pod between two worlds by hand
// and checks both sides' books and the leak audit.
func TestTransferRoundTrip(t *testing.T) {
	cfg := Config{Horizon: 2 * time.Hour, BootDelay: 45 * time.Minute}
	a, b := New(cfg), New(cfg)
	a.Start()
	b.Start()
	if err := a.FeedEvent(ctrace.Event{Time: time.Minute, Kind: ctrace.Submit, Pod: "p", User: "u",
		Containers: []trace.Container{{CPU: 0.1, Mem: 0.1}}}); err != nil {
		t.Fatal(err)
	}
	barrier := sim.Time(30 * time.Minute)
	a.Advance(barrier)
	b.Advance(barrier)
	trs := a.TransferOut(10 * time.Minute)
	if len(trs) != 1 || trs[0].Pod.ID != "p" {
		t.Fatalf("TransferOut: %+v", trs)
	}
	if got := a.TransferOut(10 * time.Minute); len(got) != 0 {
		t.Fatalf("second TransferOut drained again: %+v", got)
	}
	if err := b.InjectTransfer(trs[0]); err != nil {
		t.Fatal(err)
	}
	a.Advance(sim.Time(cfg.Horizon))
	b.Advance(sim.Time(cfg.Horizon))
	ra, rb := a.Finish(), b.Finish()
	if leaks := a.Leaks(); len(leaks) > 0 {
		t.Fatalf("world a leaks: %v", leaks)
	}
	if leaks := b.Leaks(); len(leaks) > 0 {
		t.Fatalf("world b leaks: %v", leaks)
	}
	if ra.TransferredOut != 1 || ra.Arrived != 1 || ra.StillPending != 0 {
		t.Fatalf("world a: %+v", ra)
	}
	if rb.TransferredIn != 1 || rb.Arrived != 0 || rb.Scheduled != 1 {
		t.Fatalf("world b: %+v", rb)
	}
}

// TestStreamDigestDeterministic pins that equal worlds yield equal
// digests and diverged worlds do not.
func TestStreamDigestDeterministic(t *testing.T) {
	users := churnUsers(t, 9, 10)
	run := func() (*Cluster, uint64) {
		c := New(Config{Horizon: 4 * time.Hour})
		c.Start()
		src := ctrace.NewSynth(users)
		for {
			ev, err := src.Next()
			if err != nil {
				break
			}
			if ev.Time > 4*time.Hour {
				continue
			}
			if err := c.FeedEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		c.Advance(sim.Time(2 * time.Hour))
		return c, c.Digest()
	}
	c1, d1 := run()
	c2, d2 := run()
	if d1 != d2 {
		t.Fatalf("identical runs digest %x vs %x", d1, d2)
	}
	c1.Advance(sim.Time(3 * time.Hour))
	if c1.Digest() == c2.Digest() {
		t.Fatal("advanced world kept the same digest")
	}
}
