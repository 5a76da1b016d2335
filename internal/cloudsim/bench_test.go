package cloudsim

import (
	"math/rand"
	"testing"
)

// BenchmarkOptimizeHostloDrain runs the step-4 optimizer over one
// deterministic drain-phase group: 300 same-type VMs, most holding a
// few small containers (drainFleet). Large groups like this are a small
// share of a lifecycle run's cache misses but a large share of its
// optimizer time, and at this size consolidate queries its target
// index on every tentative move, so this isolates that layer's ns/op
// and allocs/op.
func BenchmarkOptimizeHostloDrain(b *testing.B) {
	group := fromFleet(drainFleet(rand.New(rand.NewSource(1)), 300))
	cat := Catalog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainSink = OptimizeHostlo(group, cat)
	}
}

// drainSink keeps the benchmarked call's result alive.
var drainSink []PlacedVM
