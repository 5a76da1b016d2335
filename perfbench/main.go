// Command perfbench is the repository benchmark: it runs one workload
// through the same public APIs the CLIs use, checks the outputs, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a separate traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload replay-kube --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload, each in its own process, and exits
// non-zero if any output check failed. See README.md for the workloads,
// the metrics and how each per-layer metric maps to an end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one named input set the benchmark runs.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"replay-kube", runReplay},
	{"lifecycle-hostlo", runLifecycle},
	{"whatif-mix", runWhatif},
	{"figures-micro", runFigures},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload: its settings, the operation and
// check tallies, and the metrics it has measured.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tiny     bool   // self-test sizes
	traceDir string // where the traced run's Chrome trace goes
	out      io.Writer

	attempted, failed int
	values            map[string]float64
}

func newBench(name string, seed int64, secs float64, traced, tiny bool, out io.Writer) *bench {
	return &bench{
		workload: name,
		seed:     seed,
		seconds:  time.Duration(secs * float64(time.Second)),
		traced:   traced,
		tiny:     tiny,
		traceDir: filepath.Join(".bench_build", "perfbench"),
		out:      out,
		values:   map[string]float64{},
	}
}

// check counts one attempted operation or output check, and a failure
// when ok is false.
func (b *bench) check(ok bool, format string, args ...interface{}) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.out, "# FAILED %s: %s\n", b.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// probe returns a bench whose checks count apart from b's, for a
// negative case that feeds a check output it must reject.
func (b *bench) probe() *bench {
	return &bench{workload: b.workload + " (negative case)", out: io.Discard, values: map[string]float64{}}
}

// set records a catalog metric.
func (b *bench) set(name string, v float64) {
	if _, ok := unitOf(name); !ok {
		panic("perfbench: metric not in the catalog: " + name)
	}
	b.values[name] = v
}

// note prints one human-readable report line (never the last line).
func (b *bench) note(format string, args ...interface{}) {
	fmt.Fprintf(b.out, "# %s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// phase is the length of one timed phase: the whole run untraced, half
// of it for each of the untraced and traced halves of a traced run.
func (b *bench) phase() time.Duration {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// setupReps is how many times a workload repeats its set-up to report
// the median.
func (b *bench) setupReps() int {
	if b.tiny {
		return 2
	}
	return 5
}

// opSample is one timed operation.
type opSample struct {
	wall, cpu time.Duration
}

// repeat runs fn until d has passed and at least minOps times, timing
// each call's wall and process CPU time. prep, when not nil, runs
// untimed before each call; so does a garbage collection, so that no
// operation pays for the garbage of the one before.
func repeat(d time.Duration, minOps int, prep func(i int), fn func(i int) error) ([]opSample, error) {
	var ops []opSample
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < d; i++ {
		if prep != nil {
			prep(i)
		}
		runtime.GC()
		w0, c0 := time.Now(), cpuTime()
		if err := fn(i); err != nil {
			return ops, err
		}
		ops = append(ops, opSample{time.Since(w0), cpuTime() - c0})
	}
	return ops, nil
}

// medians returns the median wall and CPU seconds of ops.
func medians(ops []opSample) (wall, cpu float64) {
	w := make([]float64, len(ops))
	c := make([]float64, len(ops))
	for i, o := range ops {
		w[i], c[i] = o.wall.Seconds(), o.cpu.Seconds()
	}
	return median(w), median(c)
}

// setupMedian times fn at least reps times, and more while the repeats
// have taken under setupFloor (so a set-up of a millisecond is sampled
// a thousand times), and returns the median in seconds.
func setupMedian(reps int, fn func() error) (float64, error) {
	const setupFloor, maxReps = time.Second, 1000
	var xs []float64
	start := time.Now()
	for len(xs) < reps || (time.Since(start) < setupFloor && len(xs) < maxReps) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// startTimed readies the process for the untimed-to-timed switch: the
// peak RSS restarts from the memory live now, inputs included.
func (b *bench) startTimed() {
	if !resetPeakRSS() {
		b.note("cannot reset VmHWM; peak_rss_mb includes input generation")
	}
}

// setRuntime reports the Go runtime counters accumulated over the ops
// operations of a phase, per operation; podsPerOp is 0 where the
// operation has no pods.
func (b *bench) setRuntime(d runtimeSample, ops, podsPerOp int) {
	b.set("runtime.gc_cpu_s", d.gcCPU/float64(ops))
	b.set("runtime.alloc_mb", float64(d.allocBytes)/(1<<20)/float64(ops))
	if podsPerOp > 0 {
		b.set("runtime.allocs_per_pod", float64(d.allocObjs)/float64(ops*podsPerOp))
	}
}

// writeTrace writes the traced run's spans as Chrome trace JSON.
func (b *bench) writeTrace(tr *tracer) {
	path := filepath.Join(b.traceDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := tr.writeChrome(path, "perfbench "+b.workload); err != nil {
		b.check(false, "write trace: %v", err)
		return
	}
	b.note("trace: %d spans written to %s", len(tr.spans), path)
}

// result assembles the output line: every end-to-end metric untraced,
// every per-layer metric traced. A per-layer metric of a layer this
// workload never calls reports 0; a missing end-to-end metric is a bug
// and fails the run.
func (b *bench) result() result {
	res := result{Metrics: map[string]metric{}}
	add := func(name, unit string, required bool) {
		v, ok := b.values[name]
		if !ok && required {
			b.check(false, "metric %s was not measured", name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A failed operation reads as an unbounded latency; JSON has
			// no infinity, so report the largest number it can hold.
			v = math.MaxFloat64
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if b.traced {
		for _, m := range perLayer {
			add(m.name, m.unit, false)
		}
	} else {
		for _, m := range endToEnd {
			add(m.name, m.unit, true)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0 && b.attempted > 0
	return res
}

// runOne runs one workload and returns its result line.
func runOne(w workload, b *bench) result {
	if err := w.run(b); err != nil {
		b.check(false, "%v", err)
	}
	if !b.traced {
		b.set("peak_rss_mb", peakRSSMB())
	}
	return b.result()
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	secs := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the untraced one")
	flag.Parse()
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll())
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		b := newBench(w.name, *seed, *secs, *trace == 1, false, os.Stdout)
		fmt.Printf("# %s: seed %d, %v measured, trace %d, GOMAXPROCS %d\n",
			w.name, *seed, b.seconds, *trace, runtime.GOMAXPROCS(0))
		res := runOne(w, b)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of", *name)
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, " %s", w.name)
	}
	fmt.Fprintln(os.Stderr, ", or all)")
	os.Exit(2)
}

// runAll runs every workload in a child process of its own, so each
// peak_rss_mb is that workload's alone, and returns 1 if any failed.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}
