package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/snapshot"
	"nestless/internal/trace"
)

// whatif-mix: snapshot.NewService builds Hostlo base worlds under node
// crashes (timed as setup_s). Each user's arrivals spread over the
// horizon, so a world at its snapshot is in steady state and every
// branch continues through arrivals as well as departures. Each world
// is served under its own path prefix of one loopback HTTP server;
// a closed loop of nproc clients, each on its own keep-alive connection
// from this one process, sends seeded queries to Service.Handler(),
// each to a world drawn at random. A client sends its next query when
// the previous reply arrives. Read-only branches (baseline,
// switch-policy) mix with mutating ones (kill-nodes, add-pods).
//
// A query's cost follows its world's demand, which the Pareto-tailed
// pod lifetimes make vary widely from seed to seed; spreading the
// queries over several worlds averages that variation out of the
// latency percentiles.

const whatifWorlds = 4

func whatifBase(b *bench, world int) snapshot.BaseConfig {
	users := 200
	if b.tiny {
		users = 30
	}
	return snapshot.BaseConfig{
		Seed:           b.seed*whatifWorlds + int64(world),
		Users:          users,
		MeanArrivalGap: 40 * time.Minute,
		MeanLifetime:   45 * time.Minute,
		Policy:         cluster.Hostlo,
		Horizon:        8 * time.Hour,
		SnapAt:         5 * time.Hour,
		BootDelay:      45 * time.Second,
		FaultSpec:      "node/*:crash:p=0.01:n=3",
	}
}

// poolQuery is one distinct query of the mix, for one world; key
// identifies it so a repeated query can be checked against its first
// reply.
type poolQuery struct {
	world int
	key   string
	url   string // set once the server listens
	body  []byte
	q     snapshot.Query
}

// queryPool returns one world's distinct queries: one of each kind, as
// the service's concurrent-query test sends them (baseline, add-pods of
// 300 pods, switch-policy to Kubernetes, kill-nodes of one live node).
// No record of the service's real traffic exists, so the mix weighs
// the four kinds equally.
func queryPool(world, live int) []poolQuery {
	var pool []poolQuery
	for _, q := range []snapshot.Query{
		{Kind: "baseline"},
		{Kind: "add-pods", Pods: 300, PodSeed: 11},
		{Kind: "switch-policy", Policy: "kubernetes"},
		{Kind: "kill-nodes", KillCount: min(1, live)},
	} {
		body, err := json.Marshal(q)
		if err != nil {
			panic(err) // a Query always marshals
		}
		pool = append(pool, poolQuery{world: world, key: fmt.Sprintf("w%d/%s", world, q.Kind), body: body, q: q})
	}
	return pool
}

// answer is one client-side observation.
type answer struct {
	idx    int // pool index
	status int
	lat    time.Duration
	rep    snapshot.Reply
	err    error
}

// closedLoop serves every world on one loopback listener, world w under
// /w<w>/, and runs clients closed-loop clients against it for d and
// until minQueries queries were sent, but no longer than maxLoop times
// d; then it shuts the server down and waits for it. Each query is drawn
// from the pool uniformly, so every world and every kind is equally
// likely.
func closedLoop(svcs []*snapshot.Service, pool []poolQuery, seed int64, clients int, d time.Duration, minQueries int) ([]answer, time.Duration, error) {
	const maxLoop = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	mux := http.NewServeMux()
	for w, svc := range svcs {
		prefix := fmt.Sprintf("/w%d", w)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, svc.Handler()))
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	for i := range pool {
		pool[i].url = fmt.Sprintf("http://%s/w%d/whatif", ln.Addr(), pool[i].world)
	}

	per := make([][]answer, clients)
	var wg sync.WaitGroup
	var sent atomic.Int64
	start := time.Now()
	deadline, cutoff := start.Add(d), start.Add(maxLoop*d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
			for now := time.Now(); now.Before(deadline) || (sent.Load() < int64(minQueries) && now.Before(cutoff)); now = time.Now() {
				i := rng.Intn(len(pool))
				per[c] = append(per[c], ask(client, i, pool[i]))
				sent.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(ctx)
	if err := <-served; err != http.ErrServerClosed {
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	if shutErr != nil {
		return nil, 0, fmt.Errorf("shutdown: %w", shutErr)
	}
	var all []answer
	for _, a := range per {
		all = append(all, a...)
	}
	return all, elapsed, nil
}

// ask sends one query and times it to the end of the reply body.
func ask(client *http.Client, idx int, pq poolQuery) answer {
	a := answer{idx: idx}
	t0 := time.Now()
	resp, err := client.Post(pq.url, "application/json", bytes.NewReader(pq.body))
	if err != nil {
		a.err = err
		a.lat = time.Since(t0)
		return a
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.lat = time.Since(t0)
	a.status = resp.StatusCode
	if err == nil && a.status == http.StatusOK {
		err = json.Unmarshal(data, &a.rep)
	}
	a.err = err
	return a
}

func runWhatif(b *bench) error {
	worlds := whatifWorlds
	if b.tiny {
		worlds = 2
	}
	svcs := make([]*snapshot.Service, worlds)
	setup, err := setupMedian(b.setupReps(), func() error {
		for w := range svcs {
			var err error
			if svcs[w], err = snapshot.NewService(whatifBase(b, w)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("new service: %w", err)
	}
	var pool []poolQuery
	baseDigests := make([]string, worlds)
	for w := range svcs {
		snapWorld, err := cluster.Restore(svcs[w].Snapshot(), cluster.RestoreOpts{})
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		live := len(snapWorld.LiveNodeNames())
		pool = append(pool, queryPool(w, live)...)
		baseDigests[w] = fmt.Sprintf("%016x", svcs[w].BaseDigest())
		b.note("world %d: %d users, hostlo, faults %q, %d nodes crashed and %d live at the snapshot",
			w, whatifBase(b, w).Users, whatifBase(b, w).FaultSpec, svcs[w].Snapshot().Res.Kills, live)
	}
	clients := runtime.NumCPU()
	minQueries := 1000
	if b.tiny {
		minQueries = 10
	}
	b.note("closed loop of %d keep-alive clients over %d worlds, %d distinct queries, at least %d sent",
		clients, worlds, len(pool), minQueries)

	// The closed loop runs the whole measured time in the traced run too,
	// so that its percentiles rest on as many samples as the untraced
	// run's.
	b.startTimed()
	c0 := cpuTime()
	rt0 := readRuntime()
	answers, elapsed, err := closedLoop(svcs, pool, b.seed, clients, b.seconds, minQueries)
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rt0)
	cpu := cpuTime() - c0
	if len(answers) == 0 {
		return fmt.Errorf("no query completed")
	}

	// Output checks on every reply; a failed query misses any latency
	// limit.
	rc := &replyCheck{pool: pool, base: baseDigests, first: map[int]string{}}
	lats := make([]float64, len(answers))
	waits := make([]float64, 0, len(answers))
	ok, hits, misses := 0, 0, 0
	for i, a := range answers {
		lats[i] = math.Inf(1)
		if !rc.check(b, a) {
			continue
		}
		ok++
		lats[i] = a.lat.Seconds()
		waits = append(waits, a.lat.Seconds()*1e3-a.rep.ElapsedMS)
		hits += a.rep.WarmCacheHits
		misses += a.rep.WarmCacheMisses
	}
	b.check(corruptedReplyFails(b, pool, baseDigests, answers), "a reply with a corrupted digest passed the checks")

	byKind := map[string][]float64{}
	for i, a := range answers {
		byKind[pool[a.idx].q.Kind] = append(byKind[pool[a.idx].q.Kind], lats[i])
	}
	for _, k := range []string{"baseline", "switch-policy", "kill-nodes", "add-pods"} {
		b.note("%-13s %5d queries, p50 %.2f ms", k, len(byKind[k]), median(byKind[k])*1e3)
	}
	p50, p99 := quantile(lats, 0.5), quantile(lats, 0.99)
	b.note("queries: %d sent, %d ok in %.2f s; latency p50 %.2f ms, p99 %.2f ms over %d samples (%d beyond p99)",
		len(answers), ok, elapsed.Seconds(), p50*1e3, p99*1e3, len(lats), len(lats)/100)
	if !b.traced {
		b.set("setup_s", setup)
		b.set("wall_s", p50)
		b.set("cpu_s", cpu.Seconds()/float64(len(answers)))
		b.set("work_per_s", float64(ok)/elapsed.Seconds())
		return nil
	}
	b.setRuntime(rt, len(answers), 0)
	b.set("whatif.wait_ms", median(waits))
	b.set("whatif.query_p50_ms", p50*1e3)
	b.set("whatif.query_p99_ms", p99*1e3)
	b.set("whatif.queries", float64(len(answers)))
	if hits+misses > 0 {
		b.set("whatif.warm_hit_ratio", float64(hits)/float64(hits+misses))
	}

	// The traced run mirrors every world's NewService; the set-up layers
	// are reported per world.
	tr := newTracer()
	mirrors := make([]*mirror, worlds)
	var snapBytes, pods int
	var opt cluster.Result
	for w := range mirrors {
		m, err := mirrorService(tr, whatifBase(b, w))
		if err != nil {
			return fmt.Errorf("traced base world %d: %w", w, err)
		}
		b.check(m.digest == svcs[w].BaseDigest(), "traced base digest %016x of world %d, NewService %016x", m.digest, w, svcs[w].BaseDigest())
		mirrors[w] = m
		snapBytes += m.bytes
		pods += m.pods
		opt.OptimizerRuns += m.res.OptimizerRuns
		opt.OptimizerFull += m.res.OptimizerFull
		opt.OptimizerMoves += m.res.OptimizerMoves
		opt.OptimizerCacheHits += m.res.OptimizerCacheHits
		opt.OptimizerCacheMisses += m.res.OptimizerCacheMisses
	}
	nw := float64(worlds)
	b.set("cluster.capture.self_s", tr.selfS("cluster.capture")/nw)
	b.set("snapshot.encode.self_s", tr.selfS("snapshot.encode")/nw)
	b.set("snapshot.decode.self_s", tr.selfS("snapshot.decode")/nw)
	b.set("snapshot.bytes", float64(snapBytes)/nw)
	b.set("cluster.advance.self_s", tr.selfS("cluster.advance")/nw)
	b.set("cluster.advance.ns_per_pod", float64(tr.self["cluster.advance"].Nanoseconds())/float64(pods))
	b.set("cluster.advance.world_skew", 1)
	b.set("cluster.finish.self_s", tr.selfS("cluster.finish")/nw)
	b.set("cluster.digest.self_s", tr.selfS("cluster.digest")/nw)
	b.setOptimizer(opt)

	// The traced queries cycle through the pool, each answered with the
	// tracer off and on. A query the closed loop never sent is answered
	// once by Service.Run for the reference.
	for i, pq := range pool {
		if _, seen := rc.first[i]; !seen {
			rep, err := svcs[pq.world].Run(pq.q)
			if !b.check(err == nil, "query %s: %v", pq.key, err) {
				return nil
			}
			rc.first[i] = rep.Digest
		}
	}
	n, overhead, err := alternate(b.phase(), tr, nil, func(t *tracer, pair int) error {
		i := pair % len(pool)
		pq := pool[i]
		digest, leaks, err := mirrors[pq.world].query(t, pq.q)
		if !b.check(err == nil, "traced query %s: %v", pq.key, err) {
			return nil
		}
		b.check(len(leaks) == 0, "traced query %s leaks: %v", pq.key, leaks)
		b.check(fmt.Sprintf("%016x", digest) == rc.first[i],
			"traced query %s digest %016x, service reply %s", pq.key, digest, rc.first[i])
		return nil
	})
	if err != nil {
		return err
	}
	b.set("cluster.restore.self_s", tr.selfS("cluster.restore")/float64(n))
	b.set("cluster.delta.self_s", tr.selfS("cluster.delta")/float64(n))
	b.set("cluster.continue.self_s", tr.selfS("cluster.continue")/float64(n))
	b.set("cluster.audit.self_s", tr.selfS("cluster.audit")/float64(n))
	b.set("trace.overhead_s", overhead)
	b.writeTrace(tr)
	return nil
}

// replyCheck is the output check on the service's replies: every reply
// is a 200 with no leaks, a baseline reproduces its world's base run
// digest, and a repeated query its first reply's digest.
type replyCheck struct {
	pool  []poolQuery
	base  []string       // base run digest per world
	first map[int]string // first reply's digest per pool index
}

// check checks one answer and reports whether it passed.
func (rc *replyCheck) check(b *bench, a answer) bool {
	pq := rc.pool[a.idx]
	if !b.check(a.err == nil && a.status == http.StatusOK, "query %s: status %d, %v", pq.key, a.status, a.err) {
		return false
	}
	good := b.check(len(a.rep.Leaks) == 0, "query %s leaks: %v", pq.key, a.rep.Leaks)
	if pq.q.Kind == "baseline" {
		want := rc.base[pq.world]
		good = b.check(a.rep.Digest == want, "query %s digest %s, base run %s", pq.key, a.rep.Digest, want) && good
	}
	if want, seen := rc.first[a.idx]; seen {
		good = b.check(a.rep.Digest == want, "repeated query %s digest %s, first reply %s", pq.key, a.rep.Digest, want) && good
	} else {
		rc.first[a.idx] = a.rep.Digest
	}
	return good
}

// corruptedReplyFails is the negative case: it checks the first reply
// that passed, then a copy of it whose digest differs in one bit, and
// reports whether the copy failed.
func corruptedReplyFails(b *bench, pool []poolQuery, base []string, answers []answer) bool {
	for _, a := range answers {
		rc := &replyCheck{pool: pool, base: base, first: map[int]string{}}
		probe := b.probe()
		if !rc.check(probe, a) {
			continue
		}
		d, err := strconv.ParseUint(a.rep.Digest, 16, 64)
		if err != nil {
			return false
		}
		bad := a
		bad.rep.Digest = fmt.Sprintf("%016x", d^1)
		return !rc.check(probe, bad)
	}
	return false
}

// mirror is the traced copy of a what-if service's base world.
type mirror struct {
	bc     snapshot.BaseConfig
	snap   *cluster.Snapshot
	res    cluster.Result
	digest uint64
	bytes  int
	pods   int
}

// mirrorService builds the base world the way snapshot.NewService does,
// one span per call: generate, New, Arm, Advance to the snapshot
// instant, Capture, Encode, then on to the horizon, Finish, the leak
// audit and the digest. It also decodes the encoded snapshot and checks
// that it re-encodes to the same bytes.
func mirrorService(tr *tracer, bc snapshot.BaseConfig) (*mirror, error) {
	root := tr.begin("whatif.base")
	defer tr.end(root)
	sched, err := faults.ParseSpec(bc.FaultSpec)
	if err != nil {
		return nil, err
	}
	cl, err := cloud.Resolve(cloud.Options{})
	if err != nil {
		return nil, err
	}
	var pods []trace.Pod
	for _, u := range trace.Generate(trace.GenConfig{
		Seed:              bc.Seed,
		Users:             bc.Users,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.2,
		MeanArrivalGap:    bc.MeanArrivalGap,
		MeanLifetime:      bc.MeanLifetime,
	}) {
		pods = append(pods, u.Pods...)
	}
	mode := cluster.Reconciler
	if cl.Imperative {
		mode = cluster.Imperative
	}
	var c *cluster.Cluster
	tr.do("cluster.new", func() {
		c = cluster.New(cluster.Config{
			Seed:          bc.Seed,
			Pods:          pods,
			Catalog:       cl.Catalog.Types,
			Policy:        bc.Policy,
			Horizon:       bc.Horizon,
			BootDelay:     bc.BootDelay,
			Faults:        sched,
			PackCacheSize: bc.PackCacheSize,
			Zones:         cl.Zones,
			ZoneNames:     cl.ZoneNames,
			SpotFrac:      cl.SpotFrac,
			SpotDiscount:  cl.SpotDiscount,
			Autoscaler:    mode,
		})
		c.Arm()
	})
	tr.do("cluster.advance", func() { c.Advance(sim.Time(bc.SnapAt)) })
	m := &mirror{bc: bc, pods: len(pods)}
	tr.do("cluster.capture", func() { m.snap, err = c.Capture() })
	if err != nil {
		return nil, err
	}
	var enc []byte
	tr.do("snapshot.encode", func() { enc, err = snapshot.Encode(m.snap) })
	if err != nil {
		return nil, err
	}
	m.bytes = len(enc)
	var dec *cluster.Snapshot
	tr.do("snapshot.decode", func() { dec, err = snapshot.Decode(enc) })
	if err != nil {
		return nil, err
	}
	if again, err := snapshot.Encode(dec); err != nil || !bytes.Equal(again, enc) {
		return nil, fmt.Errorf("decoded snapshot does not re-encode to the same bytes (%v)", err)
	}
	tr.do("cluster.advance", func() { c.Advance(sim.Time(bc.Horizon)) })
	tr.do("cluster.finish", func() { m.res = c.Finish() })
	var leaks []string
	tr.do("cluster.leaks", func() { leaks = c.Leaks() })
	if len(leaks) > 0 {
		return nil, fmt.Errorf("base world leaks: %s", leaks[0])
	}
	tr.do("cluster.digest", func() { m.digest = c.Digest() })
	return m, nil
}

// query answers q the way Service.Run does, one span per step: restore
// a branch, apply the delta, continue to the horizon, audit.
func (m *mirror) query(tr *tracer, q snapshot.Query) (digest uint64, leaks []string, err error) {
	root := tr.begin("whatif.query")
	tr.arg(root, "kind", q.Kind)
	defer tr.end(root)
	opts := cluster.RestoreOpts{}
	if q.Kind == "switch-policy" {
		p := cluster.Kubernetes
		if q.Policy == "hostlo" {
			p = cluster.Hostlo
		}
		opts.Policy = &p
	}
	var c *cluster.Cluster
	tr.do("cluster.restore", func() { c, err = cluster.Restore(m.snap, opts) })
	if err != nil {
		return 0, nil, err
	}
	tr.do("cluster.delta", func() {
		switch q.Kind {
		case "add-pods":
			err = c.AdoptPods(synthPods(q.Pods, q.PodSeed, m.bc))
		case "kill-nodes":
			live := c.LiveNodeNames()
			if q.KillCount > len(live) {
				err = fmt.Errorf("kill-nodes wants %d of %d live nodes", q.KillCount, len(live))
				return
			}
			err = c.KillNodesNow(live[:q.KillCount])
		}
	})
	if err != nil {
		return 0, nil, err
	}
	tr.do("cluster.continue", func() { c.Advance(sim.Time(m.bc.Horizon)) })
	tr.do("cluster.audit", func() {
		c.Finish()
		leaks = c.Leaks()
		digest = c.Digest()
	})
	return digest, leaks, nil
}

// synthPods derives the pods of an add-pods query exactly as the what-if
// service does: n single-container pods sized from seed, arriving at
// the snapshot instant.
func synthPods(n int, seed int64, bc snapshot.BaseConfig) []trace.Pod {
	rng := sim.NewRand(seed)
	pods := make([]trace.Pod, n)
	for i := range pods {
		pods[i] = trace.Pod{
			ID: fmt.Sprintf("whatif-%d-%d", seed, i),
			Containers: []trace.Container{{
				CPU: rng.Uniform(0.02, 0.25),
				Mem: rng.Uniform(0.02, 0.25),
			}},
			Arrival:  bc.SnapAt,
			Lifetime: time.Duration(rng.Exp(float64(bc.MeanLifetime))),
		}
	}
	return pods
}
