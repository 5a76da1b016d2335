package sim

import "testing"

// TestFIFOBoundedUnderChurn: a queue held at a constant depth through
// many push/pop cycles keeps its backing array within a small multiple
// of that depth, and pops return items in push order.
func TestFIFOBoundedUnderChurn(t *testing.T) {
	var q FIFO[int]
	const depth = 1000
	next, want := 0, 0
	for ; next < depth; next++ {
		q.Push(next)
	}
	for i := 0; i < 100*depth; i++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
		want++
		if q.Len() != depth {
			t.Fatalf("Len = %d, want %d", q.Len(), depth)
		}
	}
	if c := cap(q.buf); c > 4*depth {
		t.Fatalf("backing array grew to %d for depth %d", c, depth)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.buf) != 0 || q.head != 0 {
		t.Fatalf("drained queue not reset: len=%d head=%d", len(q.buf), q.head)
	}
}

// TestFIFOPopClearsSlot: a consumed item is not kept reachable from the
// backing array.
func TestFIFOPopClearsSlot(t *testing.T) {
	var q FIFO[*int]
	x, y := new(int), new(int)
	q.Push(x)
	q.Push(y)
	q.Pop()
	if q.buf[0] != nil {
		t.Fatal("popped slot still references its item")
	}
}
