package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: nestless/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkEngineSchedule  	  200000	        20.03 ns/op	       0 B/op	       0 allocs/op
pkg: nestless
BenchmarkFig4BrFusionMicro/nat         	       3	  20108521 ns/op	       304.4 Mbps	       126.0 rtt-µs	 2327234 B/op	   66160 allocs/op
PASS
ok  	nestless	0.345s
`
	doc := parse(bufio.NewScanner(strings.NewReader(in)))
	if doc.Goos != "linux" || doc.Goarch != "amd64" {
		t.Fatalf("header = %q/%q", doc.Goos, doc.Goarch)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkEngineSchedule" || b0.Package != "nestless/internal/sim" {
		t.Fatalf("bench 0 = %q in %q", b0.Name, b0.Package)
	}
	if b0.Iterations != 200000 || b0.Metrics["ns/op"] != 20.03 || b0.Metrics["allocs/op"] != 0 {
		t.Fatalf("bench 0 metrics wrong: %+v", b0)
	}
	b1 := doc.Benchmarks[1]
	if b1.Package != "nestless" || b1.Metrics["Mbps"] != 304.4 || b1.Metrics["rtt-µs"] != 126 {
		t.Fatalf("bench 1 metrics wrong: %+v", b1)
	}
}

// TestParseSchedulerThroughput: the cluster scheduler benchmark reports
// a custom pods/s metric; the converter must carry it into the BENCH
// trajectory like any built-in unit.
func TestParseSchedulerThroughput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: nestless/internal/cluster
BenchmarkSchedulerThroughput/kubernetes         	       1	   1183881 ns/op	    224685 pods/s	  524288 B/op	    1024 allocs/op
BenchmarkSchedulerThroughput/hostlo             	       1	 143467223 ns/op	      1854 pods/s
PASS
`
	doc := parse(bufio.NewScanner(strings.NewReader(in)))
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	b0 := doc.Benchmarks[0]
	if b0.Name != "BenchmarkSchedulerThroughput/kubernetes" || b0.Package != "nestless/internal/cluster" {
		t.Fatalf("bench 0 = %q in %q", b0.Name, b0.Package)
	}
	if b0.Metrics["pods/s"] != 224685 || b0.Metrics["B/op"] != 524288 {
		t.Fatalf("bench 0 metrics wrong: %+v", b0)
	}
	if doc.Benchmarks[1].Metrics["pods/s"] != 1854 {
		t.Fatalf("bench 1 metrics wrong: %+v", doc.Benchmarks[1])
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	doc := parse(bufio.NewScanner(strings.NewReader("hello\nBenchmarkBroken abc\nok\n")))
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from garbage, want 0", len(doc.Benchmarks))
	}
}

// TestParseStripsProcsSuffix: on a multi-core box `go test` appends
// -GOMAXPROCS to every name, and the baseline stores bare names, so the
// parser must drop the suffix; bare names (including sub-benchmarks
// whose own names end in digits) must come through untouched.
func TestParseStripsProcsSuffix(t *testing.T) {
	names := func(in string) []string {
		var out []string
		for _, r := range parse(bufio.NewScanner(strings.NewReader(in))).Benchmarks {
			out = append(out, r.Name)
		}
		return out
	}
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{ // suffixed, as a 2-core run prints them
			in: `BenchmarkLifecycleScale/1k/hostlo/indexed-2   1  1000 ns/op  500 pods/s
BenchmarkAblationAckFrequency/ack-1-2   1  1000 ns/op
BenchmarkAblationOverlayBatch/batch-16-2   1  1000 ns/op
`,
			want: []string{"BenchmarkLifecycleScale/1k/hostlo/indexed", "BenchmarkAblationAckFrequency/ack-1", "BenchmarkAblationOverlayBatch/batch-16"},
		},
		{ // bare, as a GOMAXPROCS=1 run prints them
			in: `BenchmarkLifecycleScale/1k/hostlo/indexed   1  1000 ns/op  500 pods/s
BenchmarkAblationAckFrequency/ack-1   1  1000 ns/op
BenchmarkAblationAckFrequency/ack-2   1  1000 ns/op
`,
			want: []string{"BenchmarkLifecycleScale/1k/hostlo/indexed", "BenchmarkAblationAckFrequency/ack-1", "BenchmarkAblationAckFrequency/ack-2"},
		},
		{ // bare names that all end in digits, but not the same ones
			in: `BenchmarkAblationAckFrequency/ack-2   1  1000 ns/op
BenchmarkAblationAckFrequency/ack-4   1  1000 ns/op
`,
			want: []string{"BenchmarkAblationAckFrequency/ack-2", "BenchmarkAblationAckFrequency/ack-4"},
		},
	} {
		if got := names(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsed names %q, want %q", got, tc.want)
		}
	}

	// A suffixed run gates against a bare baseline.
	cur := parse(bufio.NewScanner(strings.NewReader("BenchmarkLifecycleScale/1k/hostlo/indexed-8   1  1000 ns/op  450 pods/s\n")))
	base := Doc{Benchmarks: []Record{rec("", "BenchmarkLifecycleScale/1k/hostlo/indexed", map[string]float64{"pods/s": 500})}}
	if _, failed, err := compare(cur, base, "pods/s", 0.20, false); err != nil || failed {
		t.Fatalf("suffixed run vs bare baseline: failed=%v err=%v", failed, err)
	}
}

// rec builds a Record for the compare tests.
func rec(pkg, name string, metrics map[string]float64) Record {
	return Record{Name: name, Package: pkg, Iterations: 1, Metrics: metrics}
}

// TestCompareGate covers the -baseline regression mode: pass within
// tolerance, fail beyond it, improvements always fine.
func TestCompareGate(t *testing.T) {
	base := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"pods/s": 1000}),
		rec("p", "BenchmarkLifecycleScale/1k/hostlo/indexed", map[string]float64{"pods/s": 500}),
	}}

	// Mild slowdown on one, improvement on the other: within a 20% gate.
	cur := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"pods/s": 900}),
		rec("p", "BenchmarkLifecycleScale/1k/hostlo/indexed", map[string]float64{"pods/s": 700}),
	}}
	lines, failed, err := compare(cur, base, "pods/s", 0.20, false)
	if err != nil || failed {
		t.Fatalf("within tolerance: failed=%v err=%v\n%s", failed, err, strings.Join(lines, "\n"))
	}
	if len(lines) != 3 { // two rows + summary
		t.Fatalf("got %d lines, want 3: %v", len(lines), lines)
	}

	// A >20% drop must fail.
	cur.Benchmarks[1].Metrics["pods/s"] = 399
	_, failed, err = compare(cur, base, "pods/s", 0.20, false)
	if err != nil || !failed {
		t.Fatalf("regression not flagged: failed=%v err=%v", failed, err)
	}

	// Benchmarks only on one side are skipped, but comparing nothing at
	// all is an error, not a vacuous pass.
	_, failed, err = compare(Doc{Benchmarks: []Record{
		rec("p", "BenchmarkRenamed", map[string]float64{"pods/s": 1}),
	}}, base, "pods/s", 0.20, false)
	if err == nil || failed {
		t.Fatalf("empty comparison: failed=%v err=%v, want err", failed, err)
	}

	// Records without the gated metric are skipped too.
	_, _, err = compare(Doc{Benchmarks: []Record{
		rec("p", "BenchmarkLifecycleScale/1k/kubernetes/indexed", map[string]float64{"ns/op": 5}),
	}}, base, "pods/s", 0.20, false)
	if err == nil {
		t.Fatal("metric-less comparison should error")
	}
}

// TestCompareGateLower covers -lower: for allocation and time metrics a
// RISE is the regression, and a drop — however large — is always fine.
func TestCompareGateLower(t *testing.T) {
	base := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkTraceReplay/1shard", map[string]float64{"allocs/op": 1000}),
		rec("p", "BenchmarkTraceReplay/8shard", map[string]float64{"allocs/op": 1100}),
	}}

	// Mild rise on one, big improvement on the other: within a 20% gate.
	cur := Doc{Benchmarks: []Record{
		rec("p", "BenchmarkTraceReplay/1shard", map[string]float64{"allocs/op": 1100}),
		rec("p", "BenchmarkTraceReplay/8shard", map[string]float64{"allocs/op": 500}),
	}}
	lines, failed, err := compare(cur, base, "allocs/op", 0.20, true)
	if err != nil || failed {
		t.Fatalf("within tolerance: failed=%v err=%v\n%s", failed, err, strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[len(lines)-1], "rise") {
		t.Fatalf("summary should name the rise sense: %q", lines[len(lines)-1])
	}

	// A >20% rise must fail.
	cur.Benchmarks[0].Metrics["allocs/op"] = 1201
	_, failed, err = compare(cur, base, "allocs/op", 0.20, true)
	if err != nil || !failed {
		t.Fatalf("alloc rise not flagged: failed=%v err=%v", failed, err)
	}

	// The same risen record gated WITHOUT -lower reads as an
	// improvement and passes — the flag is what flips the sense.
	risen := Doc{Benchmarks: cur.Benchmarks[:1]}
	_, failed, err = compare(risen, base, "allocs/op", 0.20, false)
	if err != nil || failed {
		t.Fatalf("higher-is-better reading should pass: failed=%v err=%v", failed, err)
	}
}
