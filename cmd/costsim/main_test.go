package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"nestless/internal/ctrace"
	"nestless/internal/golden"
	"nestless/internal/trace"
)

// The golden stdout suite: each case runs the built costsim binary with
// a small fixed argument list and compares its whole stdout, byte for
// byte, with testdata/<case>.golden. Replay cases run at -shards 1 and
// -shards 2 against the same file (stdout never depends on the shard
// count). A golden file is recorded by running the same arguments by
// hand, from a directory holding the test trace:
//
//	costsim <args> > testdata/<case>.golden
var goldenCases = []struct {
	name string
	args []string
}{
	{"lifecycle", []string{"-lifecycle", "-users", "6", "-horizon", "2h", "-seed", "3"}},
	{"lifecycle-imperative-faults", []string{"-lifecycle", "-users", "6", "-horizon", "2h", "-seed", "4",
		"-autoscaler", "imperative", "-faults", "node/*:crash:p=0.02"}},
	{"lifecycle-spot-zones", []string{"-lifecycle", "-users", "6", "-horizon", "2h", "-seed", "5",
		"-cloud", "gcp:n2", "-zones", "2", "-spot-frac", "0.5"}},
	{"lifecycle-metrics", []string{"-lifecycle", "-users", "4", "-horizon", "2h", "-seed", "6", "-metrics"}},
	{"replay", []string{"-replay", "trace.csv", "-horizon", "4h", "-worlds", "4", "-boot", "10m", "-migrate-after", "5m", "-shards", "1"}},
	{"replay", []string{"-replay", "trace.csv", "-horizon", "4h", "-worlds", "4", "-boot", "10m", "-migrate-after", "5m", "-shards", "2"}},
	{"replay-metrics", []string{"-replay", "trace.csv", "-horizon", "4h", "-worlds", "4", "-boot", "10m", "-migrate-after", "5m",
		"-metrics", "-shards", "2"}},
}

// writeTrace writes the replay cases' input: a small synthetic
// population serialized by ctrace.Write, as ctracegen would.
func writeTrace(t *testing.T, path string) {
	t.Helper()
	gcfg := trace.DefaultConfig(9)
	gcfg.Users = 12
	gcfg.MeanArrivalGap = 2 * time.Minute
	gcfg.MeanLifetime = 45 * time.Minute
	var buf bytes.Buffer
	if err := ctrace.Write(&buf, ctrace.NewSynth(trace.Generate(gcfg)), ctrace.CSV); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goTool locates the go command that is running this test.
func goTool(t *testing.T) string {
	t.Helper()
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		t.Skip("go command not found; cannot build costsim")
	}
	return p
}

// TestGoldenStdout runs every golden case and compares its stdout.
func TestGoldenStdout(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "costsim")
	build := exec.Command(goTool(t), "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build costsim: %v\n%s", err, out)
	}
	writeTrace(t, filepath.Join(dir, "trace.csv"))
	for _, gc := range goldenCases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, gc.args...)
		cmd.Dir = dir
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("costsim %s: %v\n%s", strings.Join(gc.args, " "), err, stderr.String())
		}
		got := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		golden.Check(t, filepath.Join("testdata", gc.name+".golden"), got)
	}
}
