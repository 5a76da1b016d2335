package main

import (
	"fmt"
	"reflect"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// lifecycle-hostlo: the Pods-mode ingestion face. Each operation runs
// Run, under Hostlo with zero boot delay, on a world cluster.New built
// untimed (its set-up), so the incremental optimizer and the packing
// cache do most of the work. Nothing is parsed or sharded.

const lifecycleHorizon = 6 * time.Hour

func lifecyclePods(b *bench) int {
	if b.tiny {
		return 1_000
	}
	return 20_000
}

// lifecycleWorkload flattens a churned population into n pods, shaped
// like the repository's lifecycle scale benchmark.
func lifecycleWorkload(seed int64, n int) []trace.Pod {
	users := trace.Generate(trace.GenConfig{
		Seed:              seed,
		Users:             n/5 + 1,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.1,
		MeanArrivalGap:    90 * time.Second,
		MeanLifetime:      90 * time.Minute,
	})
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
		if len(pods) >= n {
			break
		}
	}
	if len(pods) > n {
		pods = pods[:n]
	}
	return pods
}

func runLifecycle(b *bench) error {
	pods := lifecycleWorkload(b.seed, lifecyclePods(b))
	cfg := cluster.Config{
		Seed:    b.seed,
		Pods:    pods,
		Policy:  cluster.Hostlo,
		Horizon: lifecycleHorizon,
	}
	b.note("workload: %d pods, hostlo, %v horizon, zero boot delay", len(pods), cfg.Horizon)

	setup, err := setupMedian(b.setupReps(), func() error {
		cluster.New(cfg)
		return nil
	})
	if err != nil {
		return err
	}

	// Each operation's world is built untimed, as set-up.
	var c *cluster.Cluster
	build := func(int) { c = cluster.New(cfg) }
	var first cluster.Result
	untraced := func(i int) error {
		res := c.Run()
		leaks := c.Leaks()
		b.check(len(leaks) == 0, "lifecycle run %d leaks: %v", i, leaks)
		if i == 0 {
			first = res
			b.check(res.Scheduled > 0, "lifecycle scheduled no pods")
			return nil
		}
		b.check(reflect.DeepEqual(res, first), "lifecycle run %d result differs from the first run's", i)
		return nil
	}

	b.startTimed()
	rt0 := readRuntime()
	ops, err := repeat(b.phase(), 1, build, untraced)
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rt0)
	wall, cpu := medians(ops)
	b.note("lifecycle: %d ops, median %.3f s wall, %.3f s CPU, %d scheduled, %d optimizer runs (%d full), cache %d hits / %d misses",
		len(ops), wall, cpu, first.Scheduled, first.OptimizerRuns, first.OptimizerFull,
		first.OptimizerCacheHits, first.OptimizerCacheMisses)
	if !b.traced {
		b.set("setup_s", setup)
		b.set("wall_s", wall)
		b.set("cpu_s", cpu)
		b.set("work_per_s", float64(first.Scheduled)/wall)
		return nil
	}
	b.setRuntime(rt, len(ops), first.Arrived)

	tr := newTracer()
	n, overhead, err := alternate(b.phase(), tr, build, func(t *tracer, _ int) error {
		res, leaks := tracedLifecycle(t, c)
		b.check(len(leaks) == 0, "traced lifecycle leaks: %v", leaks)
		b.check(reflect.DeepEqual(res, first), "traced lifecycle result differs from Run's")
		return nil
	})
	if err != nil {
		return err
	}
	nf := float64(n)
	b.set("cluster.advance.self_s", tr.selfS("cluster.advance")/nf)
	b.set("cluster.advance.ns_per_pod", float64(tr.self["cluster.advance"].Nanoseconds())/nf/float64(first.Arrived))
	b.set("cluster.advance.world_skew", 1)
	b.set("cluster.finish.self_s", tr.selfS("cluster.finish")/nf)
	b.set("cluster.audit.self_s", tr.selfS("cluster.audit")/nf)
	b.setOptimizer(first)
	b.set("trace.overhead_s", overhead)
	b.writeTrace(tr)
	return nil
}

// tracedLifecycle runs what Run does on a new world, one span per call:
// Arm, Advance in 15-minute slices, Finish, then the leak audit.
func tracedLifecycle(tr *tracer, c *cluster.Cluster) (cluster.Result, []string) {
	root := tr.begin("lifecycle")
	defer tr.end(root)
	tr.do("cluster.arm", c.Arm)
	const slice = sim.Time(15 * time.Minute)
	horizon := c.Horizon()
	for t := slice; ; t += slice {
		if t > horizon {
			t = horizon
		}
		id := tr.begin("cluster.advance")
		c.Advance(t)
		tr.arg(id, "until", fmt.Sprint(time.Duration(t)))
		tr.end(id)
		if t == horizon {
			break
		}
	}
	var res cluster.Result
	var leaks []string
	tr.do("cluster.finish", func() { res = c.Finish() })
	tr.do("cluster.audit", func() { leaks = c.Leaks() })
	return res, leaks
}
