package snapshot

import (
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
)

// benchWorld builds the shared base for the fork benchmarks: a
// 200-user Hostlo world with faults, advanced to mid-horizon — large
// enough that Capture walks a real fleet, queue and packing cache,
// small enough that a restore-and-continue iteration stays cheap.
func benchWorld(b *testing.B) *cluster.Cluster {
	b.Helper()
	cfg := cluster.Config{
		Seed:      42,
		Pods:      churnPods(42, 200),
		Policy:    cluster.Hostlo,
		Horizon:   4 * time.Hour,
		BootDelay: 30 * time.Second,
		Faults:    mustSpec(b, "node/*:crash:p=0.02;node/provision:fail:p=0.1"),
	}
	c := cluster.New(cfg)
	c.Arm()
	c.Advance(sim.Time(2 * time.Hour))
	return c
}

// BenchmarkSnapshotFork measures the three legs of the what-if loop:
// capturing a running world, round-tripping it through the binary
// codec, and restoring a branch that continues to the horizon. Every
// leg reports forks/s — the service-facing rate — which the CI gate
// tracks against BENCH_core.json.
func BenchmarkSnapshotFork(b *testing.B) {
	b.Run("capture", func(b *testing.B) {
		c := benchWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Capture(); err != nil {
				b.Fatalf("Capture: %v", err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})

	b.Run("codec", func(b *testing.B) {
		c := benchWorld(b)
		snap, err := c.Capture()
		if err != nil {
			b.Fatalf("Capture: %v", err)
		}
		enc, err := Encode(snap)
		if err != nil {
			b.Fatalf("Encode: %v", err)
		}
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := Encode(snap)
			if err != nil {
				b.Fatalf("Encode: %v", err)
			}
			if _, err := Decode(e); err != nil {
				b.Fatalf("Decode: %v", err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})

	b.Run("restore-continue", func(b *testing.B) {
		c := benchWorld(b)
		snap, err := c.Capture()
		if err != nil {
			b.Fatalf("Capture: %v", err)
		}
		horizon := sim.Time(4 * time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br, err := cluster.Restore(snap, cluster.RestoreOpts{})
			if err != nil {
				b.Fatalf("Restore: %v", err)
			}
			br.Advance(horizon)
			if res := br.Finish(); res.Arrived == 0 {
				b.Fatal("empty branch result")
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(b.N)/secs, "forks/s")
		}
	})
}

// BenchmarkBranchRestore measures Restore alone — no continuation — on
// the what-if benchmark's base-world shape (Hostlo, arrivals spread over
// the horizon, node crashes, snapshot in steady state at 5 h).
func BenchmarkBranchRestore(b *testing.B) {
	svc, err := NewService(BaseConfig{
		Seed:           4,
		Users:          200,
		MeanArrivalGap: 40 * time.Minute,
		MeanLifetime:   45 * time.Minute,
		Policy:         cluster.Hostlo,
		Horizon:        8 * time.Hour,
		SnapAt:         5 * time.Hour,
		BootDelay:      45 * time.Second,
		FaultSpec:      "node/*:crash:p=0.01:n=3",
	})
	if err != nil {
		b.Fatal(err)
	}
	snap := svc.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Restore(snap, cluster.RestoreOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}
