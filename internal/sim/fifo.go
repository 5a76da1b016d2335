package sim

// FIFO is a slice-backed first-in first-out queue with O(1) amortized
// Push and Pop. Pop advances a head index instead of copying the tail
// down; the slice resets to empty when it drains, and the live items are
// compacted to the front only when a Push would otherwise grow the
// backing array while at least half of it is the dead prefix. That copy
// is paid for by the pops that made the prefix, so both ends stay O(1)
// amortized and the array stays within a small multiple of the deepest
// queue. Popped slots are cleared, so the queue never keeps a consumed
// item's pointers alive.
//
// The zero value is an empty queue ready to use.
type FIFO[T any] struct {
	buf  []T // buf[head:] are the queued items, oldest first
	head int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the front item. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Items returns the queued items, oldest first. The slice aliases the
// queue: it is valid until the next Push or Pop, and writes through it
// modify the queued items.
func (q *FIFO[T]) Items() []T { return q.buf[q.head:] }
