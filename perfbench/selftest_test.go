package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"nestless/internal/snapshot"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile pins BENCHMARK.json to the catalog the
// binary emits: the same workloads, and the same metrics with the same
// units and directions, in order.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, w.Name, workloads[i].name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalog %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s",
				i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s",
				i, m.Name, m.Unit, m.Better, c.name, c.unit, c.better)
		}
	}
}

// TestLayerTargetsExist checks that every per-layer metric names at
// least one end-to-end metric it should move, on a real workload.
func TestLayerTargetsExist(t *testing.T) {
	isWorkload := map[string]bool{}
	for _, w := range workloads {
		isWorkload[w.name] = true
	}
	isMetric := map[string]bool{}
	for _, m := range endToEnd {
		isMetric[m.name] = true
	}
	for _, l := range perLayer {
		if len(l.targets) == 0 {
			t.Errorf("%s names no end-to-end target", l.name)
		}
		for _, tg := range l.targets {
			if !isWorkload[tg.workload] || !isMetric[tg.metric] {
				t.Errorf("%s targets %s on %s, which does not exist", l.name, tg.metric, tg.workload)
			}
		}
	}
}

// TestTinyRuns runs every workload at self-test size, untraced and
// traced, and checks that the run is correct and emits every metric of
// BENCHMARK.json with its unit; end-to-end metrics must be positive.
func TestTinyRuns(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				b := newBench(w.name, 3, 0.2, traced, true, &out)
				b.traceDir = t.TempDir()
				res := runOne(w, b)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not correct (%d of %d failed):\n%s", res.Failed, res.Attempted, out.String())
				}
				check := func(name, unit string, positive bool) {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not emitted", name)
						return
					}
					if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
					if positive && !(m.Value > 0) {
						t.Errorf("metric %s = %v, want > 0", name, m.Value)
					}
				}
				if traced {
					for _, m := range f.PerLayer {
						check(m.Name, m.Unit, false)
					}
				} else {
					for _, m := range f.EndToEnd {
						check(m.Name, m.Unit, true)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCorruptedDigestFails is the negative case: a replay result or a
// service reply whose digest differs in one bit fails the same output
// check every real one goes through, while the untouched one passes.
func TestCorruptedDigestFails(t *testing.T) {
	b := newBench("replay-kube", 3, 0.2, false, true, &bytes.Buffer{})
	data, err := replayTrace(b.seed, replayPods(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := tracedReplay(newTracer(), data, replayConfig(b.seed), &skewMeter{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameReplay(b, "replay", out, out) || b.failed != 0 {
		t.Fatal("a replay fails the check against itself")
	}
	bad := out
	bad.digest ^= 1
	if sameReplay(b, "corrupted replay", bad, out) || b.failed == 0 {
		t.Fatal("a corrupted replay digest passed the check")
	}

	pool := queryPool(0, 1)
	base := []string{"00881ac8c39a2c8b"}
	replies := []answer{
		{idx: 0, status: http.StatusOK, rep: snapshot.Reply{Digest: base[0]}},
		{idx: 1, status: http.StatusOK, rep: snapshot.Reply{Digest: "ddd90f7c63620630"}},
	}
	for _, a := range replies {
		rc := &replyCheck{pool: pool, base: base, first: map[int]string{}}
		if !rc.check(b.probe(), a) || !rc.check(b.probe(), a) {
			t.Fatalf("reply %+v (and its repeat) fails the check", a)
		}
		if !corruptedReplyFails(b, pool, base, []answer{a}) {
			t.Fatalf("reply %+v with a corrupted digest passed the check", a)
		}
	}
}
