package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/ctrace"
	"nestless/internal/shard"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// replay-kube: the costsim -replay path under the Kubernetes policy. A
// CSV trace is generated from the seed outside the timing; each
// operation parses it from memory with ctrace.NewReader, feeding
// shard.Replay over 8 worlds with the pipelined feed and the audit on.

const (
	replayWorlds  = 8
	replayHorizon = 6 * time.Hour
	// worldSeedStride is shard's per-world seed ladder; the traced run
	// builds the worlds itself and must seed them the same way.
	worldSeedStride = 999_983
)

func replayPods(b *bench) int {
	if b.tiny {
		return 2_000
	}
	return 200_000
}

// replayTrace generates a CSV trace of n pods whose users' arrivals
// spread over the horizon.
func replayTrace(seed int64, n int) ([]byte, error) {
	const podsPerUser = 6
	gen := trace.DefaultConfig(seed)
	gen.Users = n/podsPerUser*11/10 + 1
	gen.MeanPodsPerUser = podsPerUser
	gen.MeanArrivalGap = replayHorizon / (2 * podsPerUser)
	gen.MeanLifetime = 45 * time.Minute
	users := capPods(trace.Generate(gen), n)
	var buf bytes.Buffer
	if err := ctrace.Write(&buf, ctrace.NewSynth(users), ctrace.CSV); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// capPods keeps the first n pods of a population, in user order.
func capPods(users []trace.User, n int) []trace.User {
	out := make([]trace.User, 0, len(users))
	for _, u := range users {
		if n <= 0 {
			break
		}
		if len(u.Pods) > n {
			u.Pods = u.Pods[:n]
		}
		n -= len(u.Pods)
		out = append(out, u)
	}
	return out
}

func replayConfig(seed int64) shard.Config {
	return shard.Config{
		Worlds: replayWorlds,
		Shards: runtime.NumCPU(),
		Audit:  true,
		Cluster: cluster.Config{
			Policy:  cluster.Kubernetes,
			Seed:    seed,
			Horizon: replayHorizon,
		},
	}
}

// newWorlds builds and starts the replay's worlds, seeded as shard does.
func newWorlds(cfg shard.Config) []*cluster.Cluster {
	worlds := make([]*cluster.Cluster, cfg.Worlds)
	for w := range worlds {
		wcfg := cfg.Cluster
		wcfg.Seed = cfg.Cluster.Seed + int64(w)*worldSeedStride
		worlds[w] = cluster.New(wcfg)
		worlds[w].Start()
	}
	return worlds
}

func runReplay(b *bench) error {
	data, err := replayTrace(b.seed, replayPods(b))
	if err != nil {
		return fmt.Errorf("generate trace: %w", err)
	}
	cfg := replayConfig(b.seed)
	b.note("trace: %d pods, %.1f MB CSV, %d worlds, %d shards", replayPods(b), float64(len(data))/1e6, cfg.Worlds, cfg.Shards)

	// Set-up: what a replay builds before it reads its first event.
	setup, err := setupMedian(b.setupReps(), func() error {
		if _, err := ctrace.NewReader(bytes.NewReader(data), ctrace.Options{}); err != nil {
			return err
		}
		newWorlds(cfg)
		return nil
	})
	if err != nil {
		return err
	}

	var first shard.Result
	untraced := func(i int) error {
		r, err := ctrace.NewReader(bytes.NewReader(data), ctrace.Options{})
		if err != nil {
			return err
		}
		res, err := shard.Replay(r, cfg)
		if !b.check(err == nil, "replay %d: %v", i, err) {
			return nil
		}
		if i == 0 {
			first = res
			b.check(res.Merged.Arrived > 0 && res.Submits == replayPods(b),
				"replay arrived %d pods of %d submits, want %d submits", res.Merged.Arrived, res.Submits, replayPods(b))
			return nil
		}
		sameReplay(b, fmt.Sprintf("replay %d", i), outOf(res), outOf(first))
		return nil
	}

	b.startTimed()
	rt0 := readRuntime()
	ops, err := repeat(b.phase(), 1, nil, untraced)
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rt0)
	wall, cpu := medians(ops)
	b.note("replay: %d ops, median %.3f s wall, %.3f s CPU, %d pods arrived, digest %016x",
		len(ops), wall, cpu, first.Merged.Arrived, first.Digest)

	// The negative case: the first result with its digest off by one bit
	// must fail the comparison every replay goes through.
	corrupt := outOf(first)
	corrupt.digest ^= 1
	probe := b.probe()
	b.check(!sameReplay(probe, "corrupted replay", corrupt, outOf(first)) && probe.failed > 0,
		"a replay result with a corrupted digest passed the check")
	if !b.traced {
		b.set("setup_s", setup)
		b.set("wall_s", wall)
		b.set("cpu_s", cpu)
		b.set("work_per_s", float64(first.Merged.Arrived)/wall)
		return nil
	}
	b.setRuntime(rt, len(ops), first.Merged.Arrived)

	tr := newTracer()
	var skew skewMeter
	n, overhead, err := alternate(b.phase(), tr, nil, func(t *tracer, pair int) error {
		sk := &skewMeter{}
		if t == tr {
			sk = &skew
		}
		out, err := tracedReplay(t, data, cfg, sk)
		if !b.check(err == nil, "traced replay: %v", err) {
			return nil
		}
		sameReplay(b, "traced replay", out, outOf(first))
		if pair == 0 && t == tr {
			b.note("traced replay: %d events, digest %016x", out.events, out.digest)
		}
		return nil
	})
	if err != nil {
		return err
	}
	events := float64(first.Events)
	nf := float64(n)
	b.set("ctrace.next.self_s", tr.selfS("ctrace.next")/nf)
	b.set("ctrace.events", events)
	b.set("ctrace.ns_per_event", float64(tr.self["ctrace.next"].Nanoseconds())/nf/events)
	b.set("ctrace.partition.self_s", tr.selfS("ctrace.partition")/nf)
	b.set("cluster.feed.self_s", tr.selfS("cluster.feed")/nf)
	b.set("cluster.feed.calls", float64(tr.calls["cluster.feed"])/nf)
	b.set("cluster.advance.self_s", tr.selfS("cluster.advance")/nf)
	b.set("cluster.advance.ns_per_pod", float64(tr.self["cluster.advance"].Nanoseconds())/nf/float64(first.Merged.Arrived))
	b.set("cluster.advance.world_skew", skew.ratio())
	b.set("cluster.digest.self_s", tr.selfS("cluster.digest")/nf)
	b.set("cluster.finish.self_s", tr.selfS("cluster.finish")/nf)
	b.set("cluster.merge.self_s", tr.selfS("cluster.merge")/nf)
	b.set("cluster.audit.self_s", tr.selfS("cluster.audit")/nf)
	b.setOptimizer(first.Merged)
	b.set("trace.overhead_s", overhead)
	b.writeTrace(tr)
	return nil
}

// sameReplay is the output check on a replay: its folded digest, epoch
// and event counts, per-world results and merged trajectory must equal
// the reference's.
func sameReplay(b *bench, what string, got, want replayOut) bool {
	ok := b.check(got.digest == want.digest && got.epochs == want.epochs && got.events == want.events,
		"%s digest %016x over %d epochs and %d events, reference %016x over %d and %d",
		what, got.digest, got.epochs, got.events, want.digest, want.epochs, want.events)
	ok = b.check(reflect.DeepEqual(got.worlds, want.worlds), "%s world results differ from the reference's", what) && ok
	return b.check(reflect.DeepEqual(got.merged, want.merged), "%s merged trajectory differs from the reference's", what) && ok
}

// setOptimizer reports the Hostlo optimizer and packing-cache counters
// of a cluster result.
func (b *bench) setOptimizer(r cluster.Result) {
	b.set("cluster.optimizer.runs", float64(r.OptimizerRuns))
	b.set("cluster.optimizer.full", float64(r.OptimizerFull))
	b.set("cluster.optimizer.moves", float64(r.OptimizerMoves))
	if t := r.OptimizerCacheHits + r.OptimizerCacheMisses; t > 0 {
		b.set("cloudsim.packcache.hit_ratio", float64(r.OptimizerCacheHits)/float64(t))
	}
}

// skewMeter accumulates, over barrier epochs, the slowest world's
// advance and the mean advance: the slowest world sets each epoch.
type skewMeter struct {
	sumMax, sumMean float64
}

func (s *skewMeter) epoch(durs []time.Duration) {
	var max, sum time.Duration
	for _, d := range durs {
		sum += d
		if d > max {
			max = d
		}
	}
	s.sumMax += max.Seconds()
	s.sumMean += sum.Seconds() / float64(len(durs))
}

func (s *skewMeter) ratio() float64 {
	if s.sumMean == 0 {
		return 0
	}
	return s.sumMax / s.sumMean
}

// replayOut is what a traced replay reproduces of shard.Replay's result.
type replayOut struct {
	digest uint64
	epochs int
	events int
	worlds []cluster.Result
	merged []cluster.Sample
}

// outOf is the part of a shard.Replay result a traced replay reproduces.
func outOf(r shard.Result) replayOut {
	return replayOut{digest: r.Digest, epochs: r.Epochs, events: r.Events, worlds: r.Worlds, merged: r.Merged.Samples}
}

// tracedReplay runs shard's serial-feed epoch loop itself, one span per
// call into the cluster layer: feed every event up to the barrier,
// advance each world to it, fold the world digests, and at the horizon
// finish, audit and merge. The shard contract makes this byte-identical
// to the pipelined feed of shard.Replay (no migration is configured, so
// every event goes to its hash-partition world).
func tracedReplay(tr *tracer, data []byte, cfg shard.Config, skew *skewMeter) (replayOut, error) {
	var out replayOut
	root := tr.begin("replay")
	defer tr.end(root)

	var r *ctrace.Reader
	var err error
	var worlds []*cluster.Cluster
	tr.do("ctrace.open", func() { r, err = ctrace.NewReader(bytes.NewReader(data), ctrace.Options{}) })
	if err != nil {
		return out, err
	}
	tr.do("cluster.new", func() { worlds = newWorlds(cfg) })
	next := func() (ctrace.Event, bool, error) {
		t0 := tr.stamp()
		ev, err := r.Next()
		tr.lap("ctrace.next", t0)
		if err == io.EOF {
			return ev, false, nil
		}
		return ev, err == nil, err
	}

	horizon := worlds[0].Horizon()
	epoch := sim.Time(15 * time.Minute)
	var held ctrace.Event
	hasHeld, eof := false, false
	durs := make([]time.Duration, len(worlds))
	for t := sim.Time(0); t < horizon; {
		end := t + epoch
		if end > horizon {
			end = horizon
		}
		feed := tr.begin("shard.feed")
		for !eof {
			ev := held
			if hasHeld {
				hasHeld = false
			} else {
				var ok bool
				if ev, ok, err = next(); err != nil {
					tr.end(feed)
					return out, err
				} else if !ok {
					eof = true
					break
				}
			}
			if sim.Time(ev.Time) > end {
				held, hasHeld = ev, true
				break
			}
			t1 := tr.stamp()
			w := ctrace.Partition(ev, len(worlds))
			t2 := tr.lap("ctrace.partition", t1)
			err := worlds[w].FeedEvent(ev)
			tr.lap("cluster.feed", t2)
			if err != nil {
				tr.end(feed)
				return out, err
			}
			out.events++
		}
		tr.end(feed)
		for w := range worlds {
			durs[w] = tr.do("cluster.advance", func() { worlds[w].Advance(end) })
		}
		skew.epoch(durs)
		barrier := tr.begin("shard.barrier")
		for w := range worlds {
			var d uint64
			tr.do("cluster.digest", func() { d = worlds[w].Digest() })
			out.digest = fold(out.digest, d)
		}
		tr.end(barrier)
		out.epochs++
		t = end
	}

	// The tail past the horizon is counted, never fed.
	tail := tr.begin("shard.tail")
	for pending := hasHeld; pending || !eof; {
		ev := held
		if pending {
			pending, hasHeld = false, false
		} else {
			var ok bool
			if ev, ok, err = next(); err != nil {
				tr.end(tail)
				return out, err
			} else if !ok {
				eof = true
				break
			}
		}
		out.events++
		if ev.Kind == ctrace.Submit {
			worlds[ctrace.Partition(ev, len(worlds))].NoteBeyondHorizon()
		}
	}
	tr.end(tail)

	out.worlds = make([]cluster.Result, len(worlds))
	for w := range worlds {
		tr.do("cluster.finish", func() { out.worlds[w] = worlds[w].Finish() })
		var leaks []string
		tr.do("cluster.audit", func() { leaks = worlds[w].Leaks() })
		if len(leaks) > 0 {
			return out, fmt.Errorf("world %d leaks: %v", w, leaks)
		}
	}
	tr.do("cluster.merge", func() { out.merged = cluster.MergeTrajectories(out.worlds) })
	return out, nil
}

// fold mixes one world digest into the running replay digest, exactly
// as shard folds them (FNV-1a over the digest's bytes).
func fold(h, v uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	if h == 0 {
		h = offset
	}
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= prime
	}
	return h
}
