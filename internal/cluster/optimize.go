package cluster

import (
	"slices"
	"sort"

	"nestless/internal/cloudsim"
)

// Hostlo re-optimisation. The paper's step-4 optimizer
// (cloudsim.OptimizeHostlo: consolidate / split / shrink, cost-monotone)
// is expensive over a big fleet, and churn dirties only a few nodes
// between passes. The incremental policy therefore re-packs just the
// dirty set — nodes whose contents changed since the last pass — plus a
// bounded neighborhood of consolidation targets (the emptiest live
// nodes by most-requested score), falling back to a full-fleet pass
// when the dirty fraction exceeds Config.RepackDirtyFrac or when
// Config.FullRepack pins full passes. Candidate selection is
// deterministic and identical between the indexed and reference
// schedulers (the equivalence suite diffs them); whether it uses the
// capacity index or a fleet scan is purely a wall-clock matter.
//
// Incremental passes are additionally partitioned, canonicalized and
// memoized (see optimizeGroups): candidates split into disjoint
// per-catalog-type groups, each group sorted into its canonical
// content order, looked up in the per-world packing cache, and only
// the missing groups handed to cloudsim.OptimizeHostlo, one after the
// other on the caller's goroutine (a pass misses on about 1.3 groups,
// too few to pay for a goroutine fan-out; DESIGN §13). Group outputs
// merge back in type order, so the improved placement is a pure
// function of the candidate content: identical with the cache on or
// off. Full passes stay exactly the original global optimizer call
// over the whole fleet in creation order — that is what makes a
// drained no-churn cluster settle on the static packer's fleet, so
// partitioning must never apply to them.

// minNeighborhood is the floor on how many consolidation targets an
// incremental pass considers alongside the dirty set.
const minNeighborhood = 8

// optimize runs the Hostlo optimizer over the candidate set and
// reconciles those nodes to the improved placement. Containers move
// between nodes (a migration the Hostlo device makes cheap — the pod's
// network identity does not change); VMs the optimizer shrank or
// emptied are retired, VMs it re-typed are replaced. Reconciliation is
// instant in the model: migration latency is not priced, only fleet
// time is.
func (c *Cluster) optimize() {
	c.dirty = false
	cand, full := c.optimizeCandidates()
	c.dirtyList = c.dirtyList[:0]
	if len(cand) == 0 {
		return
	}
	for _, n := range cand {
		n.dirty = false
	}
	c.res.OptimizerRuns++
	c.count("cluster/optimizer_runs")
	var improved []cloudsim.PlacedVM
	var sigs []cloudsim.VMSig
	if full {
		c.res.OptimizerFull++
		c.count("cluster/optimizer_full_runs")
		placed := c.placedScratch[:0]
		for _, n := range cand {
			placed = append(placed, cloudsim.PlacedVM{Type: n.typ, Items: n.items})
		}
		c.placedScratch = placed
		improved = cloudsim.OptimizeHostlo(placed, c.cat)
		sigs = cloudsim.AppendSigs(c.sigScratch[:0], improved)
		c.sigScratch = sigs
	} else {
		improved, sigs = c.optimizeGroups(cand)
	}
	c.reconcile(cand, improved, sigs)
}

// optimizeGroups runs one incremental pass: the candidates are
// partitioned into disjoint per-catalog-type groups, each group is
// copied into the canonical arena and canonicalized, the packing cache
// is probed in type order, cache misses are optimized and their fresh
// solutions installed in type order (deterministic LRU order), and the
// group outputs are concatenated in type order. It returns the merged
// placement and its per-VM signatures.
//
// Nothing is hashed for a node whose contents did not change since its
// signature was last taken: a group's cache key is folded from the
// signatures the nodes carry (equal to GroupKey of the canonical copy,
// since neither the signature nor the fold depends on order), the one
// key serves both the probe and the install, and a hit returns the
// output signatures stored with the entry. Only a miss's fresh output
// is hashed, once, and the cache keeps those signatures.
func (c *Cluster) optimizeGroups(cand []*node) ([]cloudsim.PlacedVM, []cloudsim.VMSig) {
	types := len(c.cat)
	if cap(c.typeCount) < types {
		c.typeCount = make([]int, types)
	}
	counts := c.typeCount[:types]
	for i := range counts {
		counts[i] = 0
	}
	for _, n := range cand {
		counts[n.typ]++
	}
	// Build the canonical groups over the scratch arenas. Appends may
	// grow (and reallocate) the arenas mid-build; earlier segments keep
	// pointing into the abandoned backing array, which stays valid and
	// is never written again — the full-capacity slice expressions stop
	// any aliasing.
	placed := c.placedScratch[:0]
	items := c.itemScratch[:0]
	groups := c.groupScratch[:0]
	keys := c.keyScratch[:0]
	for typ := 0; typ < types; typ++ {
		if counts[typ] == 0 {
			continue
		}
		start := len(placed)
		var key cloudsim.PackKey
		for _, n := range cand {
			if n.typ != typ {
				continue
			}
			key.Add(n.signature())
			is := len(items)
			items = append(items, n.items...)
			placed = append(placed, cloudsim.PlacedVM{
				Type: typ, Items: items[is:len(items):len(items)],
			})
		}
		group := placed[start:len(placed):len(placed)]
		cloudsim.CanonicalizePlacement(group)
		groups = append(groups, group)
		keys = append(keys, key)
	}
	c.placedScratch = placed
	c.itemScratch = items
	c.groupScratch = groups
	c.keyScratch = keys

	// Serial probe phase, in type order.
	outs := c.outScratch[:0]
	outSigs := c.outSigScratch[:0]
	miss := c.missScratch[:0]
	hits := 0
	for gi, g := range groups {
		c.res.OptimizerGroups++
		if out, sigs, ok := c.pack.Lookup(keys[gi], g); ok {
			outs = append(outs, out)
			outSigs = append(outSigs, sigs)
			hits++
			continue
		}
		outs = append(outs, nil)
		outSigs = append(outSigs, nil)
		miss = append(miss, int32(gi))
	}
	// Misses are optimized and installed in type order, on the caller's
	// goroutine (deterministic LRU order). The cache takes ownership of
	// the fresh output and its signatures.
	for _, gi := range miss {
		outs[gi] = cloudsim.OptimizeHostlo(groups[gi], c.cat)
		outSigs[gi] = cloudsim.AppendSigs(nil, outs[gi])
		c.pack.Install(keys[gi], groups[gi], outs[gi], outSigs[gi])
	}
	c.outScratch = outs
	c.outSigScratch = outSigs
	c.missScratch = miss
	if c.pack != nil {
		c.res.OptimizerCacheHits += hits
		c.res.OptimizerCacheMisses += len(miss)
		if c.rec != nil {
			reg := c.rec.Metrics()
			if hits > 0 {
				reg.Counter("cluster/optimizer_cache_hits").Add(float64(hits))
			}
			if len(miss) > 0 {
				reg.Counter("cluster/optimizer_cache_misses").Add(float64(len(miss)))
			}
		}
	}
	// Merge in type order. The cached outputs stay cache-owned and
	// read-only; reconcile copies items before mutating node state.
	improved := c.improvedScratch[:0]
	sigs := c.sigScratch[:0]
	for gi, out := range outs {
		improved = append(improved, out...)
		sigs = append(sigs, outSigs[gi]...)
	}
	c.improvedScratch = improved
	c.sigScratch = sigs
	return improved, sigs
}

// optimizeCandidates picks the nodes the next pass will consider, in
// creation order, and reports whether that is the whole live fleet.
func (c *Cluster) optimizeCandidates() ([]*node, bool) {
	// Live dirty nodes (dirtyList is append-ordered; the final sort by
	// id restores creation order).
	cand := c.candScratch[:0]
	for _, n := range c.dirtyList {
		if n.live {
			cand = append(cand, n)
		} else {
			n.dirty = false
		}
	}
	full := c.cfg.FullRepack ||
		float64(len(cand)) > c.cfg.RepackDirtyFrac*float64(c.liveCount)
	if full {
		c.compactLive()
		cand = append(cand[:0], c.liveList...)
		c.candScratch = cand
		return cand, true
	}
	k := 2 * len(cand)
	if k < minNeighborhood {
		k = minNeighborhood
	}
	cand = append(cand, c.neighborhood(k)...)
	slices.SortFunc(cand, func(a, b *node) int { return a.id - b.id })
	c.candScratch = cand
	return cand, false
}

// neighborhood returns up to k live non-dirty consolidation targets:
// the emptiest nodes by (most-requested score asc, id desc). Both
// selection paths — treap tail-walk and fleet scan — apply the same
// two-stage rule (up to k per catalog type, then k overall), so they
// return the identical set.
func (c *Cluster) neighborhood(k int) []*node {
	if c.cfg.Reference {
		return c.neighborhoodScan(k)
	}
	// Each type tree's reverse walk yields its run already in the final
	// order (its key is the node's current score, idxScore), so the
	// overall first k come from a k-way merge of the runs, not a sort.
	cand := c.neighScratch[:0]
	runs := c.runScratch[:0]
	for _, root := range c.idx.trees {
		start, taken := len(cand), 0
		root.revEach(func(n *node) bool {
			if n.dirty {
				return true
			}
			cand = append(cand, n)
			taken++
			return taken < k
		})
		runs = append(runs, nodeRun{at: start, end: len(cand)})
	}
	c.neighScratch = cand
	c.runScratch = runs
	out := c.mergeScratch[:0]
	for len(out) < k {
		best := -1
		for t := range runs {
			if r := runs[t]; r.at < r.end && (best < 0 || emptierFirst(cand[r.at], cand[runs[best].at])) {
				best = t
			}
		}
		if best < 0 {
			break
		}
		out = append(out, cand[runs[best].at])
		runs[best].at++
	}
	c.mergeScratch = out
	return out
}

// nodeRun is the unmerged rest [at, end) of one type's run in
// neighborhood's candidate buffer.
type nodeRun struct{ at, end int }

// emptierFirst is the neighborhood order: most-requested score asc, id
// desc among equal scores.
func emptierFirst(a, b *node) bool {
	return a.idxScore < b.idxScore || (a.idxScore == b.idxScore && a.id > b.id)
}

// neighborhoodScan is neighborhood over a fleet scan (Reference mode,
// which keeps no capacity index): per-type sorts, then one overall
// sort on precomputed scores.
func (c *Cluster) neighborhoodScan(k int) []*node {
	byType := make([][]*node, len(c.cat))
	for _, n := range c.nodes {
		if n.live && !n.dirty {
			byType[n.typ] = append(byType[n.typ], n)
		}
	}
	var cand []*node
	for _, ns := range byType {
		sort.Slice(ns, func(a, b int) bool {
			sa, sb := c.score(ns[a]), c.score(ns[b])
			return sa < sb || (sa == sb && ns[a].id > ns[b].id)
		})
		if len(ns) > k {
			ns = ns[:k]
		}
		cand = append(cand, ns...)
	}
	sc := c.scoredScratch[:0]
	for _, n := range cand {
		sc = append(sc, scoredNode{n: n, score: c.score(n)})
	}
	slices.SortFunc(sc, func(a, b scoredNode) int {
		switch {
		case a.score < b.score:
			return -1
		case a.score > b.score:
			return 1
		case a.n.id > b.n.id:
			return -1
		default:
			return 1
		}
	})
	c.scoredScratch = sc
	if len(sc) > k {
		sc = sc[:k]
	}
	out := cand[:0]
	for _, e := range sc {
		out = append(out, e.n)
	}
	return out
}

// reconcile maps an optimized placement (with sigs[j] = VMSigOf of
// improved[j]) onto the candidate nodes: nodes
// whose type and contents are unchanged are kept (their cost clock
// keeps running), the rest are retired and replacements created. The
// moves counter records how much the optimizer actually churned.
//
// It runs in three phases over reusable scratch. Phase 1 matches
// improved VMs onto surviving candidates by signature (FIFO among
// equals, in improved order) and detects exact no-ops — a matched node
// whose item list is bit-identical to the improved VM needs no
// re-index, no placement-map rewrite, nothing; at steady state with a
// warm packing cache that is nearly every node. Phase 2 unlinks the
// touched candidates (changed or retired) from their pods' placement
// maps. Phase 3 applies: rewrites changed nodes, creates replacements
// in improved order, retires the unmatched.
func (c *Cluster) reconcile(cand []*node, improved []cloudsim.PlacedVM, sigs []cloudsim.VMSig) {
	now := c.eng.Now()
	// Phase 1: signature-match improved VMs to candidates.
	if c.avail == nil {
		c.avail = make(map[cloudsim.VMSig]sigChain, 64)
	} else {
		clear(c.avail)
	}
	next := c.availNext[:0]
	for k, n := range cand {
		sig := n.signature()
		next = append(next, -1)
		if ch, ok := c.avail[sig]; ok {
			next[ch.tail] = int32(k)
			ch.tail = int32(k)
			c.avail[sig] = ch
		} else {
			c.avail[sig] = sigChain{head: int32(k), tail: int32(k)}
		}
	}
	c.availNext = next
	match := c.matchScratch[:0]
	eq := c.eqScratch[:0]
	matched := c.candMatched[:0]
	for range cand {
		matched = append(matched, false)
	}
	for j, pv := range improved {
		sig := sigs[j]
		ch, ok := c.avail[sig]
		if !ok {
			match = append(match, -1)
			eq = append(eq, false)
			continue
		}
		k := ch.head
		if next[k] >= 0 {
			ch.head = next[k]
			c.avail[sig] = ch
		} else {
			delete(c.avail, sig)
		}
		matched[k] = true
		match = append(match, k)
		eq = append(eq, equalItems(cand[k].items, pv.Items))
	}
	c.matchScratch = match
	c.eqScratch = eq
	c.candMatched = matched
	// Phase 2: unlink the touched candidates (changed or retired) from
	// the placement maps — untouched nodes keep their entries, which is
	// what makes a no-op pass free.
	touched := c.touchedScratch[:0]
	for j := range improved {
		if k := match[j]; k >= 0 && !eq[j] {
			touched = append(touched, cand[k])
		}
	}
	for k, n := range cand {
		if !matched[k] {
			touched = append(touched, n)
		}
	}
	c.touchedScratch = touched
	c.unlinkPods(touched)
	// Phase 3: apply.
	relink := func(n *node) {
		for _, it := range n.items {
			if i, ok := c.podOf(it.Pod); ok {
				c.podNodeLink(i, n.id)
			}
		}
	}
	var created int
	for j, pv := range improved {
		if k := match[j]; k >= 0 {
			if eq[j] {
				continue
			}
			n := cand[k]
			// Canonicalize item order (and with it the used sums) to the
			// optimizer's order, so future passes see identical input.
			n.items = append(n.items[:0], pv.Items...)
			n.recompute()
			c.touchNode(n)
			n.sig, n.sigOK = sigs[j], true
			relink(n)
			continue
		}
		// Repack replacements follow the zone spread constraint but are
		// always on-demand: the optimizer consolidates committed
		// capacity, and billing it at spot rates would let a repack
		// manufacture savings the reconciler's spot fraction governs.
		n := c.createNode(pv.Type, c.pickZone(), false, now)
		n.items = append(n.items, pv.Items...)
		n.recompute()
		c.touchNode(n)
		n.sig, n.sigOK = sigs[j], true
		relink(n)
		if len(n.items) == 0 {
			n.idleSince = now
		}
		created++
	}
	retired := 0
	for k, n := range cand {
		if matched[k] {
			continue
		}
		n.items = n.items[:0]
		n.recompute()
		c.terminate(n, now)
		retired++
	}
	if created > 0 || retired > 0 {
		c.res.OptimizerMoves += created + retired
		if c.rec != nil {
			c.rec.Instant("cluster/optimizer", "repack", "moves", float64(created+retired))
			c.rec.Metrics().Counter("cluster/optimizer_moves").Add(float64(created + retired))
		}
	}
}

// equalItems reports bit-identical item lists (order included).
func equalItems(a, b []cloudsim.PlacedItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unlinkPods drops the given node ids from the placement maps of every
// pod with items on them (reconcile re-adds the new homes). Membership
// tests run on generation-stamped mark arrays instead of per-call
// maps: bumping the generation invalidates every stale mark at once,
// so the pass allocates nothing.
func (c *Cluster) unlinkPods(touched []*node) {
	if c.cfg.Reference || len(touched) == 0 {
		return
	}
	c.markGen++
	if c.markGen == 0 { // uint32 wrap: every stale stamp is void again
		for i := range c.podMark {
			c.podMark[i] = 0
		}
		for i := range c.nodeMark {
			c.nodeMark[i] = 0
		}
		c.markGen = 1
	}
	gen := c.markGen
	if len(c.podMark) < len(c.pods) {
		c.podMark = append(c.podMark, make([]uint32, len(c.pods)-len(c.podMark))...)
	}
	if len(c.nodeMark) < len(c.nodes) {
		c.nodeMark = append(c.nodeMark, make([]uint32, len(c.nodes)-len(c.nodeMark))...)
	}
	for _, n := range touched {
		c.nodeMark[n.id] = gen
	}
	for _, n := range touched {
		for _, it := range n.items {
			i, ok := c.podOf(it.Pod)
			if !ok || c.podMark[i] == gen {
				continue
			}
			c.podMark[i] = gen
			p := &c.pods[i]
			kept := p.onNodes[:0]
			for _, nid := range p.onNodes {
				if c.nodeMark[nid] != gen {
					kept = append(kept, nid)
				}
			}
			p.onNodes = kept
		}
	}
}
