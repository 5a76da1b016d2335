package sim

import (
	"testing"
	"time"
)

// The engine's scheduling hot path must not allocate: events are stored
// by value in the heap and station completions dispatch without a
// closure. These tests pin that property so a refactor cannot silently
// reintroduce per-event garbage.

func TestAtAfterZeroAllocs(t *testing.T) {
	e := New(1)
	e.Reserve(4096)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now(), fn)
		e.After(time.Microsecond, fn)
	})
	if allocs != 0 {
		t.Fatalf("At+After allocate %.1f objects/op, want 0", allocs)
	}
}

func TestScheduleDispatchZeroAllocs(t *testing.T) {
	e := New(1)
	// Pre-warm the heap so growth is amortized out of the measurement.
	for i := 0; i < 512; i++ {
		e.After(time.Duration(i)*time.Microsecond, func() {})
	}
	e.Run()
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSameInstantDrainZeroAllocs pins the batched equal-timestamp
// drain: a burst scheduled for one shared future instant, plus an
// At(now) cascade appended mid-batch, must dispatch without allocating
// (run queue, DFS scratch and index scratch are all engine-owned and
// reused).
func TestSameInstantDrainZeroAllocs(t *testing.T) {
	e := New(1)
	e.Reserve(4096)
	fn := func() {}
	// Warm the run queue and drain scratch past their steady-state size.
	for r := 0; r < 4; r++ {
		at := e.Now() + time.Microsecond
		for i := 0; i < 32; i++ {
			e.At(at, fn)
		}
		e.Run()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at := e.Now() + time.Microsecond
		for i := 0; i < 16; i++ {
			e.At(at, fn)
		}
		e.RunUntil(at)
		e.At(e.Now(), fn) // same-instant append joins the batch in O(1)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("same-instant drain allocates %.1f objects/op, want 0", allocs)
	}
}

func TestStationJobZeroAllocs(t *testing.T) {
	e := New(1)
	s := NewStation(e, "alloc", 1)
	// Steady state: completion dispatch goes through the event's station
	// field, so a nil-done job is entirely allocation-free.
	allocs := testing.AllocsPerRun(1000, func() {
		s.Process(time.Microsecond, nil)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("station job allocates %.1f objects/op, want 0", allocs)
	}

	// Warm deep queue: with ~4096 jobs waiting, one submit plus one
	// completion (which dequeues the next job) must stay allocation-free
	// once the queue array has reached its steady-state size.
	for i := 0; i < 4096; i++ {
		s.Process(time.Microsecond, nil)
	}
	for i := 0; i < 3*4096; i++ {
		s.Process(time.Microsecond, nil)
		e.step()
	}
	allocs = testing.AllocsPerRun(1000, func() {
		s.Process(time.Microsecond, nil)
		e.step()
	})
	if allocs != 0 {
		t.Fatalf("station job at queue depth %d allocates %.1f objects/op, want 0", s.QueueLen(), allocs)
	}
}
