package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineSchedule measures the raw At/pop cycle: one pre-built
// callback rescheduled through a deep heap. This is the engine's hot
// path under every figure workload, so its ns/op is the core trajectory
// metric (see BENCH_core.json).
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	// Keep a realistic backlog in the heap so push/pop exercise real
	// sift depth, not the empty-heap fast path.
	var fn func()
	n := 0
	fn = func() {
		if n < b.N {
			n++
			e.After(time.Duration(n%64)*time.Microsecond, fn)
		}
	}
	for i := 0; i < 256; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	e.After(0, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineFanout measures batch scheduling: many events pushed at
// once, then drained — the pattern of parallel sweeps front-loading work.
func BenchmarkEngineFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		e.Reserve(4096)
		nop := func() {}
		for k := 0; k < 4096; k++ {
			e.At(time.Duration(k%997)*time.Microsecond, nop)
		}
		e.Run()
	}
}

// BenchmarkEngineSameInstantRuns measures batched same-timestamp
// drains: bursts of events scheduled for one shared instant over a
// standing backlog, the pattern of coalesced trace submits and
// After(0) scheduler kicks. The equal-time run is swept out of the
// heap in one pass (drainRun) instead of one full sift-down per pop;
// ns/op and allocs/op here pin that path (see also
// TestSameInstantDrainZeroAllocs).
func BenchmarkEngineSameInstantRuns(b *testing.B) {
	e := New(1)
	e.Reserve(8192)
	nop := func() {}
	// A standing far-future backlog keeps the heap deep, so the drain
	// works against realistic sift depths.
	for i := 0; i < 1024; i++ {
		e.At(time.Hour+time.Duration(i)*time.Second, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch := 64
		if b.N-done < batch {
			batch = b.N - done
		}
		at := e.Now() + time.Millisecond
		for k := 0; k < batch; k++ {
			e.At(at, nop)
		}
		e.RunUntil(at)
		done += batch
	}
}

// BenchmarkStationPipeline pushes jobs through a station chain, the
// shape of every simulated CPU stage.
func BenchmarkStationPipeline(b *testing.B) {
	e := New(1)
	s := NewStation(e, "bench", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(time.Microsecond, nil)
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkStationDeepQueue holds about 4096 jobs waiting at one station
// and measures one submit plus one completion (which dequeues the next
// job) at that depth — the shape of a station under a TCP_STREAM window.
// A dequeue that costs O(queue depth) shows up here directly.
func BenchmarkStationDeepQueue(b *testing.B) {
	e := New(1)
	s := NewStation(e, "deep", 1)
	for i := 0; i < 4096; i++ {
		s.Process(time.Microsecond, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(time.Microsecond, nil)
		e.step()
	}
}
