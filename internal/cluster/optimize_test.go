package cluster

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestLeaksFlagsPlacementMap: the placement map and the capacity index
// are the only removal path — departures strip exactly the nodes a
// pod's map names, and placement queries trust the index's stored keys
// — so the audit must catch each way they can drift from the per-node
// state. Every corruption runs on its own clean world and must produce
// exactly its own findings.
func TestLeaksFlagsPlacementMap(t *testing.T) {
	world := func() (*Cluster, *podRun, *node) {
		c := New(Config{
			Policy:  Hostlo,
			Seed:    3,
			Horizon: 8 * time.Hour,
			Pods:    flatten(churnUsers(t, 21, 30)),
		})
		c.Run()
		if leaks := c.Leaks(); len(leaks) > 0 {
			t.Fatalf("clean run leaks: %v", leaks)
		}
		for i := range c.pods {
			if p := &c.pods[i]; p.state == stateRunning && len(p.onNodes) > 0 {
				return c, p, c.nodes[p.onNodes[0]]
			}
		}
		t.Fatal("no running pod at the horizon")
		return nil, nil, nil
	}
	cases := []struct {
		name    string
		corrupt func(c *Cluster, p *podRun, n *node)
		want    []string
	}{
		{"duplicate map entry", func(c *Cluster, p *podRun, n *node) {
			p.onNodes = append(p.onNodes, n.id)
		}, []string{"twice"}},
		{"map names a node without the pod", func(c *Cluster, p *podRun, n *node) {
			for _, other := range c.nodes {
				if other.live && !slices.Contains(p.onNodes, other.id) {
					p.onNodes = append(p.onNodes, other.id)
					return
				}
			}
			t.Fatal("every live node holds the pod")
		}, []string{"which holds none of its items"}},
		{"live node missing from the index", func(c *Cluster, p *podRun, n *node) {
			c.idx.remove(n, n.idxScore)
			n.indexed = false
		}, []string{"missing from the capacity index", "capacity index holds"}},
		{"stale index key", func(c *Cluster, p *podRun, n *node) {
			n.idxScore += 0.5
		}, []string{"stale index key"}},
	}
	for _, tc := range cases {
		c, p, n := world()
		tc.corrupt(c, p, n)
		leaks := c.Leaks()
		if len(leaks) != len(tc.want) {
			t.Fatalf("%s: audit reported %d findings, want %d: %v", tc.name, len(leaks), len(tc.want), leaks)
		}
		for _, w := range tc.want {
			if !slices.ContainsFunc(leaks, func(l string) bool { return strings.Contains(l, w) }) {
				t.Fatalf("%s: no finding mentions %q: %v", tc.name, w, leaks)
			}
		}
	}
}

// neighborhoodScan is the oracle for Cluster.neighborhood: the same
// two-stage rule (up to k per catalog type, then k overall, emptiest
// first by most-requested score asc, id desc) over a fleet scan with
// per-type sorts and one overall sort.
func neighborhoodScan(c *Cluster, k int) []*node {
	emptier := func(a, b *node) int {
		sa, sb := c.score(a), c.score(b)
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return b.id - a.id
	}
	byType := make([][]*node, len(c.cat))
	for _, n := range c.nodes {
		if n.live && !n.dirty {
			byType[n.typ] = append(byType[n.typ], n)
		}
	}
	var cand []*node
	for _, ns := range byType {
		slices.SortFunc(ns, emptier)
		cand = append(cand, ns[:min(k, len(ns))]...)
	}
	slices.SortFunc(cand, emptier)
	return cand[:min(k, len(cand))]
}

// TestNeighborhoodMergeMatchesScan: the indexed neighborhood (a k-way
// merge of the per-type tree walks) must pick exactly the nodes, in
// exactly the order, of the scan-and-sort oracle, including when
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
		want := neighborhoodScan(c, k)
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
