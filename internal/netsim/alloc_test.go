package netsim

import (
	"testing"

	"nestless/internal/sim"
)

// streamSteadyStateAllocsCap bounds the heap objects one full
// message round trip (client send → server receive → server reply →
// client receive) may allocate in steady state, once the packet, frame
// and segment-metadata pools are warm. The remaining objects are the
// per-hop delivery closures; the Packet/Frame/segMeta traffic itself is
// recycled, the send queue reuses its array and the receive-side charge
// list lives in a per-namespace scratch buffer. A regression that
// un-pools the datapath shows up as a multiple of this number (measured
// steady state: 22).
const streamSteadyStateAllocsCap = 24

func TestStreamSteadyStateAllocsBounded(t *testing.T) {
	eng, n := newWorld()
	a, b := twoHosts(n)

	if _, err := b.ListenStream(80, func(c *StreamConn) {
		c.OnMessage = func(size int, _ interface{}, _ sim.Time) {
			c.SendMessage(size, nil) // echo
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	conn := a.DialStream(IP(10, 0, 0, 2), 80, nil)
	conn.OnMessage = func(int, interface{}, sim.Time) { got++ }

	// Warm up: establish, fill the pools, amortize slice growth.
	for i := 0; i < 50; i++ {
		conn.SendMessage(1000, nil)
	}
	eng.Run()
	if got != 50 {
		t.Fatalf("warmup echoed %d/50 messages", got)
	}

	allocs := testing.AllocsPerRun(200, func() {
		conn.SendMessage(1000, nil)
		eng.Run()
	})
	t.Logf("steady-state round trip allocates %.1f objects", allocs)
	if allocs > streamSteadyStateAllocsCap {
		t.Fatalf("steady-state round trip allocates %.1f objects, cap %d",
			allocs, streamSteadyStateAllocsCap)
	}
}
