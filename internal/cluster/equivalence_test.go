package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/golden"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// The indexed-core pin suite: the capacity index, the heap pending
// queue and the index-backed neighborhood selection must reproduce the
// linear-scan reference implementation byte for byte — same Result
// (placements, fleet composition, costs, trajectories), same telemetry
// trace — under churn, node kills and fault schedules. The reference
// implementation is gone from the package; what it produced survives
// as the testdata/reference_*.golden files, recorded while both
// implementations still ran and agreed. "Byte-identical placement" is
// the whole contract of the indexed core; these tests are what pins it.

// policyModes are the scheduling regimes the suite covers: the
// Kubernetes baseline and Hostlo with the dirty-set incremental
// optimizer.
var policyModes = []struct {
	name   string
	adjust func(*cluster.Config)
}{
	{"kubernetes", func(c *cluster.Config) { c.Policy = cluster.Kubernetes }},
	{"hostlo", func(c *cluster.Config) { c.Policy = cluster.Hostlo }},
}

// runMode executes one lifecycle run, audits it, and returns its result
// plus the textual telemetry trace.
func runMode(t *testing.T, cfg cluster.Config) (cluster.Result, string) {
	t.Helper()
	rec := telemetry.New()
	cfg.Rec = rec
	c := cluster.New(cfg)
	res := c.Run()
	if leaks := c.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaks:\n  %s", strings.Join(leaks, "\n  "))
	}
	var buf bytes.Buffer
	if err := rec.WriteTextTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty telemetry trace — recorder not wired")
	}
	return res, buf.String()
}

// pinCell runs one equivalence cell and returns its result and its
// golden line: the cell name, the SHA-256 of the Result's JSON and the
// SHA-256 of the text telemetry trace.
func pinCell(t *testing.T, cell string, cfg cluster.Config) (cluster.Result, string) {
	t.Helper()
	res, tr := runMode(t, cfg)
	return res, fmt.Sprintf("%s result=%s trace=%s", cell, golden.Digest(t, res), golden.SHA256(tr))
}

// TestIndexedMatchesReferenceChurn sweeps seeded churned workloads
// through both regimes.
func TestIndexedMatchesReferenceChurn(t *testing.T) {
	var scheduled int
	var lines []string
	for _, seed := range []int64{1, 2, 3, 4} {
		users := trace.Generate(churnConfig(seed, 6))
		for ui, u := range users {
			if ui%2 == 1 {
				continue // half the users keeps the sweep fast
			}
			for _, mode := range policyModes {
				cfg := cluster.Config{
					Seed:      seed,
					Pods:      u.Pods,
					Horizon:   4 * time.Hour,
					BootDelay: 30 * time.Second,
				}
				mode.adjust(&cfg)
				res, line := pinCell(t, fmt.Sprintf("seed%d/user%d/%s", seed, ui, mode.name), cfg)
				scheduled += res.Scheduled
				lines = append(lines, line)
			}
		}
	}
	if scheduled == 0 {
		t.Fatal("no pod was ever scheduled — the sweep exercised nothing")
	}
	golden.Check(t, "testdata/reference_churn.golden", lines)
}

// TestIndexedMatchesReferenceFaults adds node kills, provisioning
// failures and delays on top of churn.
func TestIndexedMatchesReferenceFaults(t *testing.T) {
	specs := []string{
		"node/*:crash:p=0.03",
		"node/n0:crash:n=1;node/provision:fail:p=0.2",
		"node/*:crash:p=0.01;node/provision:delay:n=2:d=90s",
	}
	users := trace.Generate(churnConfig(17, 6))
	var kills int
	var lines []string
	for si, spec := range specs {
		sched, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		for _, mode := range policyModes {
			cfg := cluster.Config{
				Seed:      int64(100 + si),
				Pods:      users[si%len(users)].Pods,
				Horizon:   6 * time.Hour,
				BootDelay: 45 * time.Second,
				Faults:    sched,
				MaxSteps:  2_000_000,
			}
			mode.adjust(&cfg)
			res, line := pinCell(t, fmt.Sprintf("spec%d/%s", si, mode.name), cfg)
			kills += res.Kills
			lines = append(lines, line)
		}
	}
	if kills == 0 {
		t.Error("no run killed a node — the displacement path went unexercised")
	}
	golden.Check(t, "testdata/reference_faults.golden", lines)
}

// TestIndexedMatchesReferenceSplit pins the split-placement path: pods
// wider than the largest machine, which only Hostlo can run, placed
// container by container across nodes.
func TestIndexedMatchesReferenceSplit(t *testing.T) {
	var pods []trace.Pod
	for i := 0; i < 4; i++ {
		// Each pod totals 1.6 rel CPU — wider than the largest machine
		// (1.0) — in 8 containers of 0.2.
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.2})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i) * 10 * time.Minute,
			Lifetime:   90 * time.Minute,
			Containers: ctrs,
		})
	}
	// A couple of small pods churning around them.
	for i := 0; i < 6; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("small%d", i),
			Arrival:    time.Duration(i) * 7 * time.Minute,
			Lifetime:   40 * time.Minute,
			Containers: []trace.Container{{CPU: 0.01, Mem: 0.01}},
		})
	}
	// The cell name records that it was pinned with full-fleet passes
	// off (the incremental default).
	cfg := cluster.Config{
		Seed:      5,
		Pods:      pods,
		Policy:    cluster.Hostlo,
		Horizon:   5 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	res, hostloLine := pinCell(t, "hostlo/full=false", cfg)
	if res.Failed != 0 {
		t.Fatalf("%d wide pods failed — split placement did not engage", res.Failed)
	}
	if res.Scheduled != len(pods) {
		t.Fatalf("scheduled %d of %d pods", res.Scheduled, len(pods))
	}
	// Kubernetes must refuse the wide pods.
	cfg.Policy = cluster.Kubernetes
	res, kubeLine := pinCell(t, "kubernetes", cfg)
	if res.Failed != 4 {
		t.Fatalf("kubernetes: failed %d, want the 4 wide pods", res.Failed)
	}
	golden.Check(t, "testdata/reference_split.golden", []string{hostloLine, kubeLine})
}

// TestIncrementalOptimizerEngages proves the dirty-set policy actually
// runs incremental passes under churn. The
// workload is a large long-lived base fleet — so the dirty fraction
// stays under the threshold — with a trickle of short-lived pods
// churning a few nodes at a time.
func TestIncrementalOptimizerEngages(t *testing.T) {
	var pods []trace.Pod
	for i := 0; i < 200; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("base%d", i),
			Containers: []trace.Container{{CPU: 0.22, Mem: 0.22}},
		})
	}
	for i := 0; i < 12; i++ {
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("churn%d", i),
			Arrival:    time.Duration(i+1) * 12 * time.Minute,
			Lifetime:   25 * time.Minute,
			Containers: []trace.Container{{CPU: 0.2, Mem: 0.2}},
		})
	}
	base := cluster.Config{
		Seed:      11,
		Pods:      pods,
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	// This workload is the one that actually drives incremental passes,
	// so pin the index-backed neighborhood selection on it too.
	res, line := pinCell(t, "incremental", base)
	golden.Check(t, "testdata/reference_incremental.golden", []string{line})
	if res.OptimizerRuns == 0 {
		t.Fatal("optimizer never ran")
	}
	if res.OptimizerRuns == res.OptimizerFull {
		t.Fatalf("all %d passes were full-fleet — the incremental policy never engaged", res.OptimizerRuns)
	}
}

// repackWorkload builds a churned mixed-size workload (including pods
// wider than the largest machine) big enough that incremental passes
// carry several per-type candidate groups — the shape that actually
// exercises the grouped incremental pass and the packing cache.
func repackWorkload(seed int64) []trace.Pod {
	users := trace.Generate(churnConfig(seed, 8))
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	// A few wide pods so split placement runs under repack too.
	for i := 0; i < 3; i++ {
		var ctrs []trace.Container
		for j := 0; j < 8; j++ {
			ctrs = append(ctrs, trace.Container{CPU: 0.2, Mem: 0.15})
		}
		pods = append(pods, trace.Pod{
			ID:         fmt.Sprintf("wide%d", i),
			Arrival:    time.Duration(i+1) * 20 * time.Minute,
			Lifetime:   2 * time.Hour,
			Containers: ctrs,
		})
	}
	return pods
}

// workerScenarioConfig is the churn + kills + faults scenario the
// repack pin runs: mixed-size churn (wide pods included) under node
// crashes, big enough that incremental passes carry several per-type
// candidate groups and the packing cache both hits and misses.
func workerScenarioConfig(t *testing.T) cluster.Config {
	sched, err := faults.ParseSpec("node/*:crash:p=0.02")
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Config{
		Seed:      23,
		Pods:      repackWorkload(23),
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    sched,
	}
}

// workerScenarioTraceSHA256 is the SHA-256 of the scenario's text
// telemetry trace, and workerScenarioResult its Result, both recorded
// when the incremental repack still fanned cache-miss groups across
// goroutines (1, 2, 4 and 8 workers all produced exactly these).
const workerScenarioTraceSHA256 = "ff6b622d0f983eba556dd96dab74bf0a94795727b33255fda2a287b97e6bfea2"

var workerScenarioResult = cluster.Result{
	Policy:               cluster.Hostlo,
	Arrived:              35,
	Scheduled:            35,
	Departed:             35,
	Displaced:            135,
	Reschedules:          135,
	Kills:                80,
	ScaleUps:             102,
	OptimizerRuns:        91,
	OptimizerFull:        61,
	OptimizerMoves:       172,
	OptimizerGroups:      95,
	OptimizerCacheHits:   43,
	OptimizerCacheMisses: 52,
	PeakNodes:            21,
	ReconcileRounds:      822,
	ReconcileActions:     102,
	CostDollars:          81.962542032571,
	CostOnDemandDollars:  81.962542032571,
	TTSSum:               1050525990706,
	TTSMean:              30015028305,
	TTSP95:               120000000000,
	TTSMax:               120000000000,
	Samples: []cluster.Sample{
		{T: 1800000000000, CostPerH: 20.613000000000003, Pending: 9, Nodes: 9, UsedCPU: 1.9835000000000003, CapCPU: 3.8333, Points: 1, SumCostPerH: 20.613000000000003, SumPending: 9, SumNodes: 9, SumUsedCPU: 1.9835000000000003, SumCapCPU: 3.8333},
		{T: 3600000000000, CostPerH: 24.199, Pending: 1, Nodes: 8, UsedCPU: 3.5737, CapCPU: 4.5, Points: 1, SumCostPerH: 24.199, SumPending: 1, SumNodes: 8, SumUsedCPU: 3.5737, SumCapCPU: 4.5},
		{T: 5400000000000, CostPerH: 33.164, Pending: 0, Nodes: 13, UsedCPU: 5.151600000000001, CapCPU: 6.1667000000000005, Points: 1, SumCostPerH: 33.164, SumPending: 0, SumNodes: 13, SumUsedCPU: 5.151600000000001, SumCapCPU: 6.1667000000000005},
		{T: 7200000000000, CostPerH: 32.268, Pending: 0, Nodes: 12, UsedCPU: 4.8106, CapCPU: 6, Points: 1, SumCostPerH: 32.268, SumPending: 0, SumNodes: 12, SumUsedCPU: 4.8106, SumCapCPU: 6},
		{T: 9000000000000, CostPerH: 32.268, Pending: 0, Nodes: 12, UsedCPU: 4.8106, CapCPU: 6, Points: 1, SumCostPerH: 32.268, SumPending: 0, SumNodes: 12, SumUsedCPU: 4.8106, SumCapCPU: 6},
		{T: 10800000000000, CostPerH: 10.756, Pending: 0, Nodes: 4, UsedCPU: 1.6105999999999998, CapCPU: 2, Points: 1, SumCostPerH: 10.756, SumPending: 0, SumNodes: 4, SumUsedCPU: 1.6105999999999998, SumCapCPU: 2},
		{T: 12600000000000, CostPerH: 0.112, Pending: 0, Nodes: 1, UsedCPU: 0.0106, CapCPU: 0.0208, Points: 1, SumCostPerH: 0.112, SumPending: 0, SumNodes: 1, SumUsedCPU: 0.0106, SumCapCPU: 0.0208},
		{T: 14400000000000, CostPerH: 0, Pending: 0, Nodes: 0, UsedCPU: 0, CapCPU: 0, Points: 1, SumCostPerH: 0, SumPending: 0, SumNodes: 0, SumUsedCPU: 0, SumCapCPU: 0},
		{T: 16200000000000, CostPerH: 0, Pending: 0, Nodes: 0, UsedCPU: 0, CapCPU: 0, Points: 1, SumCostPerH: 0, SumPending: 0, SumNodes: 0, SumUsedCPU: 0, SumCapCPU: 0},
		{T: 18000000000000, CostPerH: 0, Pending: 0, Nodes: 0, UsedCPU: 0, CapCPU: 0, Points: 1, SumCostPerH: 0, SumPending: 0, SumNodes: 0, SumUsedCPU: 0, SumCapCPU: 0},
		{T: 19800000000000, CostPerH: 0, Pending: 0, Nodes: 0, UsedCPU: 0, CapCPU: 0, Points: 1, SumCostPerH: 0, SumPending: 0, SumNodes: 0, SumUsedCPU: 0, SumCapCPU: 0},
		{T: 21600000000000, CostPerH: 0, Pending: 0, Nodes: 0, UsedCPU: 0, CapCPU: 0, Points: 1, SumCostPerH: 0, SumPending: 0, SumNodes: 0, SumUsedCPU: 0, SumCapCPU: 0},
	},
}

// TestRepackScenarioGolden pins the incremental repack's output under
// churn, node kills and provisioning faults: the Result and the
// telemetry trace must match the recorded ones exactly.
func TestRepackScenarioGolden(t *testing.T) {
	res, tr := runMode(t, workerScenarioConfig(t))
	if !reflect.DeepEqual(res, workerScenarioResult) {
		t.Fatalf("Result diverged from the recorded pin:\n got: %+v\nwant: %+v", res, workerScenarioResult)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tr))); got != workerScenarioTraceSHA256 {
		t.Fatalf("telemetry trace SHA-256 %s, want %s (%d bytes)", got, workerScenarioTraceSHA256, len(tr))
	}
	if res.OptimizerRuns == res.OptimizerFull {
		t.Fatal("every pass was full-fleet — the grouped incremental pass went unexercised")
	}
	if res.OptimizerGroups < 2 {
		t.Fatalf("only %d candidate groups across the run", res.OptimizerGroups)
	}
	if res.Kills == 0 {
		t.Fatal("no node was killed — the fault path went unexercised")
	}
}

// stripCacheLines drops the optimizer-cache counter lines from a text
// trace — the only telemetry allowed to differ between cache-on and
// cache-off runs.
func stripCacheLines(trace string) string {
	lines := strings.Split(trace, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.Contains(l, "optimizer_cache") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestPackCacheEquivalence pins the cache contract: a run with the
// packing cache enabled must produce the same Result and telemetry as
// one with caching off, except for the cache hit/miss counters
// themselves. A memoized sub-solution substitutes for a fresh
// OptimizeHostlo call byte for byte.
func TestPackCacheEquivalence(t *testing.T) {
	base := cluster.Config{
		Seed:      29,
		Pods:      repackWorkload(29),
		Policy:    cluster.Hostlo,
		Horizon:   6 * time.Hour,
		BootDelay: 30 * time.Second,
	}
	on := base
	off := base
	off.PackCacheSize = -1
	resOn, trOn := runMode(t, on)
	resOff, trOff := runMode(t, off)
	if resOn.OptimizerCacheHits == 0 {
		t.Fatal("cache-on run never hit the cache — the memoization went unexercised")
	}
	if resOff.OptimizerCacheHits != 0 || resOff.OptimizerCacheMisses != 0 {
		t.Fatalf("cache-off run recorded cache traffic: %d hits, %d misses",
			resOff.OptimizerCacheHits, resOff.OptimizerCacheMisses)
	}
	a, b := resOn, resOff
	a.OptimizerCacheHits, a.OptimizerCacheMisses = 0, 0
	b.OptimizerCacheHits, b.OptimizerCacheMisses = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cache on/off diverged beyond the counters:\non:  %+v\noff: %+v", a, b)
	}
	if got, want := stripCacheLines(trOn), stripCacheLines(trOff); got != want {
		t.Fatalf("telemetry diverged beyond cache counters (%d vs %d bytes)", len(got), len(want))
	}
	// The cached world must also still match the linear reference.
	line := fmt.Sprintf("pack-cache result=%s trace=%s", golden.Digest(t, resOn), golden.SHA256(trOn))
	golden.Check(t, "testdata/reference_pack_cache.golden", []string{line})
}
