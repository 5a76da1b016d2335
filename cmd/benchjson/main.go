// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document, one record per benchmark with its
// iteration count and every reported metric (ns/op, B/op, allocs/op and
// custom units like Mbps or rtt-µs). It is how the repository's
// BENCH_core.json performance trajectory is produced:
//
//	go test -run NONE -bench . -benchtime 1x -benchmem ./... | benchjson > BENCH_core.json
//
// Parsing from text (rather than re-running benchmarks in-process)
// keeps the tool composable: any benchmark selection, count or
// benchtime works, and CI captures exactly what the log shows. Names
// are recorded bare: the -N suffix `go test` appends on a multi-core
// box (N = GOMAXPROCS) is dropped, so runs on any box compare.
//
// With -baseline the tool becomes a regression gate instead: the parsed
// run is compared against a previously committed JSON document and the
// exit status reports whether any benchmark's -metric (default pods/s,
// the scheduler-throughput number) dropped by more than -maxdrop
// (default 0.20). CI uses this to fail pull requests that slow the
// indexed scheduling core down:
//
//	go test -run NONE -bench 'LifecycleScale/1k' -benchtime 1x ./internal/cluster \
//	  | benchjson -baseline BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nestless/internal/cli"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the whole converted run.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "",
		"compare against this previously written JSON document instead of emitting JSON; exit 1 on regression")
	metric := flag.String("metric", "pods/s",
		"the metric the -baseline comparison gates on (higher is better unless -lower)")
	maxdrop := flag.Float64("maxdrop", 0.20,
		"maximum tolerated fractional regression of -metric vs -baseline before failing")
	lower := flag.Bool("lower", false,
		"the gated metric is lower-is-better (B/op, allocs/op, ns/op): fail on a rise instead of a drop")
	flag.Parse()
	if *maxdrop < 0 || *maxdrop >= 1 {
		cli.BadFlag("-maxdrop must be in [0, 1), got %v", *maxdrop)
	}
	out := parse(bufio.NewScanner(os.Stdin))
	if len(out.Benchmarks) == 0 {
		cli.Fatal("benchjson", fmt.Errorf("no benchmark lines found on stdin"))
	}
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			cli.Fatal("benchjson", err)
		}
		var base Doc
		if err := json.Unmarshal(data, &base); err != nil {
			cli.Fatal("benchjson", fmt.Errorf("%s: %w", *baseline, err))
		}
		lines, failed, err := compare(out, base, *metric, *maxdrop, *lower)
		if err != nil {
			cli.Fatal("benchjson", err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if failed {
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		cli.Fatal("benchjson", err)
	}
}

// compare gates the current run against a baseline document: every
// benchmark present in both with the gated metric must not have
// regressed by more than maxdrop — a drop for higher-is-better metrics
// (throughput), a rise for lower-is-better ones (allocations, time).
// Benchmarks on one side only are skipped — the gate checks
// trajectories, not coverage — but comparing zero benchmarks is an
// error, so a renamed benchmark cannot silently turn the gate vacuous.
func compare(cur, base Doc, metric string, maxdrop float64, lower bool) (lines []string, failed bool, err error) {
	baseBy := make(map[string]Record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Package+" "+r.Name] = r
	}
	compared := 0
	for _, r := range cur.Benchmarks {
		b, ok := baseBy[r.Package+" "+r.Name]
		if !ok {
			continue
		}
		cv, cok := r.Metrics[metric]
		bv, bok := b.Metrics[metric]
		if !cok || !bok || bv <= 0 {
			continue
		}
		compared++
		regress := (bv - cv) / bv // fraction the metric dropped
		if lower {
			regress = (cv - bv) / bv // fraction the metric rose
		}
		status := "ok"
		if regress > maxdrop {
			status = "REGRESSION"
			failed = true
		}
		delta := (cv - bv) / bv * 100
		lines = append(lines, fmt.Sprintf("%-60s %s %12.1f -> %12.1f (%+.1f%%) %s",
			r.Name, metric, bv, cv, delta, status))
	}
	if compared == 0 {
		return nil, false, fmt.Errorf("no benchmark shared metric %q with the baseline — nothing was gated", metric)
	}
	sense := "drop"
	if lower {
		sense = "rise"
	}
	lines = append(lines, fmt.Sprintf("gated %d benchmark(s) on %s, max tolerated %s %.0f%%",
		compared, metric, sense, maxdrop*100))
	return lines, failed, nil
}

func parse(sc *bufio.Scanner) Doc {
	var doc Doc
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Package = pkg
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if suf := procsSuffix(doc.Benchmarks); suf != "" {
		for i := range doc.Benchmarks {
			doc.Benchmarks[i].Name = strings.TrimSuffix(doc.Benchmarks[i].Name, suf)
		}
	}
	return doc
}

// procsSuffix returns the "-N" that `go test` appended to every name
// (N = GOMAXPROCS, added whenever it is not 1), or "" when the names
// carry none. Names are compared bare, as BENCH_core.json stores them,
// so a run on a multi-core box must lose the suffix. A suffix counts
// only when every result carries the same one: a bare sub-benchmark
// name may end in digits of its own (".../ack-1", ".../batch-16"), and
// a run with -cpu listing several values mixes suffixes, so neither
// is stripped.
func procsSuffix(recs []Record) string {
	suf := ""
	for i, r := range recs {
		dash := strings.LastIndexByte(r.Name, '-')
		if dash < 0 {
			return ""
		}
		num := r.Name[dash+1:]
		if n, err := strconv.Atoi(num); err != nil || n < 2 || num != strconv.Itoa(n) {
			return ""
		}
		if i == 0 {
			suf = r.Name[dash:]
		} else if r.Name[dash:] != suf {
			return ""
		}
	}
	return suf
}

// parseBench parses one result line: name, iterations, then
// (value, unit) pairs.
func parseBench(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	r := Record{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Record{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}
