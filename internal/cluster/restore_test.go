package cluster_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/sim"
)

// Restore derives what every branch of a snapshot shares on the
// snapshot's first Restore (validation verdict, packing-cache keys,
// pod-ID index, node names) and only copies per branch. These tests pin
// the three properties that rests on: the derivation is race-free and
// invisible in any branch's outcome, a hostile snapshot's verdict is
// stable, and a repeat Restore costs the same number of allocations
// however much dead history the snapshot carries.

const restoreHorizon = 6 * time.Hour

// restoreWorld is a Hostlo world under churn, node crashes and
// provisioning failures, parked mid-horizon: a warm packing cache, dead
// nodes, displaced pods and pending events all ride its snapshots.
func restoreWorld(t testing.TB) *cluster.Cluster {
	t.Helper()
	sched, err := faults.ParseSpec("node/*:crash:p=0.02;node/provision:fail:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(cluster.Config{
		Seed:      31,
		Pods:      repackWorkload(31),
		Policy:    cluster.Hostlo,
		Horizon:   restoreHorizon,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	})
	c.Arm()
	c.Advance(sim.Time(restoreHorizon / 2))
	return c
}

// capture snapshots c or fails the test.
func capture(t testing.TB, c *cluster.Cluster) *cluster.Snapshot {
	t.Helper()
	s, err := c.Capture()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// branchDigest restores a branch of s, runs it to the horizon and
// returns its final digest.
func branchDigest(s *cluster.Snapshot, o cluster.RestoreOpts) (uint64, error) {
	c, err := cluster.Restore(s, o)
	if err != nil {
		return 0, err
	}
	c.Advance(sim.Time(restoreHorizon))
	c.Finish()
	if leaks := c.Leaks(); len(leaks) > 0 {
		return 0, fmt.Errorf("leaks: %s", leaks[0])
	}
	return c.Digest(), nil
}

// TestRestoreFirstUseConcurrent: 16 goroutines race the first Restore of
// a snapshot nobody has restored yet. Every branch must continue to the
// digest a serial restore of an identical snapshot reaches. CI runs it
// under -race.
func TestRestoreFirstUseConcurrent(t *testing.T) {
	c := restoreWorld(t)
	ref, fresh := capture(t, c), capture(t, c)
	if fresh.Pack == nil || len(fresh.Pack.Entries) == 0 {
		t.Fatal("empty packing cache in the snapshot — the shared keys go unexercised")
	}
	if len(fresh.Nodes) == len(c.LiveNodeNames()) {
		t.Fatal("no dead node in the snapshot")
	}
	kube := cluster.Kubernetes
	opts := []cluster.RestoreOpts{{}, {Policy: &kube}}
	want := make([]uint64, len(opts))
	for k, o := range opts {
		d, err := branchDigest(ref, o)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = d
	}
	if want[0] == want[1] {
		t.Fatal("the policy switch did not change the branch — the two kinds are indistinguishable")
	}

	const n = 16
	got := make([]uint64, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g], errs[g] = branchDigest(fresh, opts[g%len(opts)])
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("branch %d: %v", g, errs[g])
		}
		if got[g] != want[g%len(opts)] {
			t.Errorf("branch %d: digest %016x, serial restore %016x", g, got[g], want[g%len(opts)])
		}
	}
}

// TestRestoreRejectsHostileTwice: a hostile snapshot fails its first
// Restore with the check that catches it, and its second Restore with
// the same error — the memoized verdict, not a silently accepted world.
func TestRestoreRejectsHostileTwice(t *testing.T) {
	c := restoreWorld(t)
	cases := []struct {
		name, want string
		mutate     func(s *cluster.Snapshot)
	}{
		{"node type", "out of catalog range", func(s *cluster.Snapshot) { s.Nodes[0].Typ = 99 }},
		{"node zone", "zone 7 out of range", func(s *cluster.Snapshot) { s.Nodes[0].Zone = 7 }},
		{"pod state", "state 9 out of range", func(s *cluster.Snapshot) { s.Pods[0].State = 9 }},
		{"live list twice", "twice", func(s *cluster.Snapshot) { s.LiveList = append(s.LiveList, s.LiveList[0]) }},
		{"dead count", "DeadLive says", func(s *cluster.Snapshot) { s.DeadLive++ }},
		{"blocked pod", "blocked pod", func(s *cluster.Snapshot) { s.BlockedPod = len(s.Pods) }},
		{"event kind", "unknown pending event kind", func(s *cluster.Snapshot) { s.Events[0].Kind = 0 }},
		{"inflight", "Inflight says", func(s *cluster.Snapshot) { s.Inflight++ }},
		{"pack type", "pack cache entry 0 names type 99", func(s *cluster.Snapshot) {
			s.Pack.Entries[0] = cloudsim.PackCacheEntry{Input: []cloudsim.PlacedVM{{Type: 99}}}
		}},
		{"pack duplicate", "duplicate key", func(s *cluster.Snapshot) {
			s.Pack.Entries = append(s.Pack.Entries, s.Pack.Entries[0])
		}},
		{"injector rules", "restore state names", func(s *cluster.Snapshot) { s.Inj.Rules = nil }},
	}
	for _, tc := range cases {
		s := capture(t, c)
		tc.mutate(s)
		_, err1 := cluster.Restore(s, cluster.RestoreOpts{})
		_, err2 := cluster.Restore(s, cluster.RestoreOpts{})
		if err1 == nil || err2 == nil {
			t.Errorf("%s: accepted (first %v, second %v)", tc.name, err1, err2)
			continue
		}
		if !strings.Contains(err1.Error(), tc.want) {
			t.Errorf("%s: first Restore failed with %q, want the %q check", tc.name, err1, tc.want)
		}
		if err1.Error() != err2.Error() {
			t.Errorf("%s: second Restore failed with %q, first with %q", tc.name, err2, err1)
		}
	}
}

// TestRestoreAllocsFlat: a repeat Restore allocates the same number of
// objects for two snapshots that differ only in dead nodes and
// packing-cache entries — both are dead history a branch copies in bulk
// or shares, never rebuilds one object at a time.
func TestRestoreAllocsFlat(t *testing.T) {
	c := restoreWorld(t)
	small, big := capture(t, c), capture(t, c)
	types := len(cloudsim.Catalog())
	for i := 0; i < 2000; i++ {
		big.Nodes = append(big.Nodes, cluster.NodeSnap{Typ: int32(i % types)})
	}
	for i := 0; i < 1000; i++ {
		g := []cloudsim.PlacedVM{{Type: i % types, Items: []cloudsim.PlacedItem{
			{Pod: fmt.Sprintf("history-%d", i), CPU: 0.01, Mem: 0.01},
		}}}
		big.Pack.Entries = append(big.Pack.Entries, cloudsim.PackCacheEntry{Input: g, Output: g})
	}
	if len(big.Pack.Entries) > big.Pack.Cap {
		t.Fatalf("%d pack entries over capacity %d", len(big.Pack.Entries), big.Pack.Cap)
	}
	restore := func(s *cluster.Snapshot) {
		if _, err := cluster.Restore(s, cluster.RestoreOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	restore(small)
	restore(big)
	a := testing.AllocsPerRun(20, func() { restore(small) })
	b := testing.AllocsPerRun(20, func() { restore(big) })
	t.Logf("allocs per Restore: %.0f (%d nodes, %d pack entries), %.0f (%d nodes, %d pack entries)",
		a, len(small.Nodes), len(small.Pack.Entries), b, len(big.Nodes), len(big.Pack.Entries))
	if b > a {
		t.Errorf("Restore allocates %.0f objects with 2000 more dead nodes and 1000 more pack entries, %.0f without", b, a)
	}
}
