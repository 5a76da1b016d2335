package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nestless/internal/cloudsim"
)

// TestLeaksFlagsStaleSignature: the audit must catch a cached node
// signature marked valid that no longer matches the node's contents —
// the derived state incremental repack keys its cache and its
// reconciliation on — and touchNode must invalidate the cache.
func TestLeaksFlagsStaleSignature(t *testing.T) {
	cfg := Config{
		Policy:  Hostlo,
		Seed:    3,
		Horizon: 8 * time.Hour,
		Pods:    flatten(churnUsers(t, 21, 30)),
	}
	c := New(cfg)
	c.Run()
	if leaks := c.Leaks(); len(leaks) > 0 {
		t.Fatalf("clean run leaks: %v", leaks)
	}
	var n *node
	for _, cand := range c.nodes {
		if cand.live && len(cand.items) > 0 {
			n = cand
			break
		}
	}
	if n == nil {
		t.Fatal("no live node with items at the horizon")
	}
	if got, want := n.signature(), cloudsim.VMSigOf(n.typ, n.items); got != want {
		t.Fatalf("signature %+v, want %+v", got, want)
	}
	c.touchNode(n)
	if n.sigOK {
		t.Fatal("touchNode left the cached signature valid")
	}
	n.signature()
	n.sig.A ^= 1
	leaks := c.Leaks()
	if len(leaks) != 1 || !strings.Contains(leaks[0], "stale cached signature") {
		t.Fatalf("corrupted signature: audit reported %v", leaks)
	}
}

// TestNeighborhoodMergeMatchesScan: the indexed neighborhood (a k-way
// merge of the per-type tree walks) must pick exactly the nodes, in
// exactly the order, of the reference scan-and-sort, including when
// score ties cross type runs at the cut. Fills of 0, 1/4 and 1/2 of a
// node's capacity give the same score on every catalog type.
func TestNeighborhoodMergeMatchesScan(t *testing.T) {
	c := New(Config{Policy: Hostlo, Seed: 1, Horizon: time.Hour})
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := c.createNode(r.Intn(len(c.cat)), 0, false, 0)
		if f := float64(r.Intn(3)) / 4; f > 0 {
			typ := c.cat[n.typ]
			n.items = append(n.items, cloudsim.PlacedItem{Pod: fmt.Sprint("p", i), CPU: f * typ.RelCPU, Mem: f * typ.RelMem})
			n.recompute()
			c.touchNode(n)
		}
		n.dirty = r.Intn(4) == 0
	}
	for k := 1; k <= 220; k++ {
		got := append([]*node(nil), c.neighborhood(k)...)
		want := c.neighborhoodScan(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d nodes, scan picked %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: position %d is %s, scan picked %s", k, i, got[i].name, want[i].name)
			}
		}
	}
}
