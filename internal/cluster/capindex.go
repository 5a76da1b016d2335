package cluster

import "nestless/internal/cloudsim"

// The indexed scheduling core: incremental data structures that replace
// the scheduler's per-decision fleet scans without changing a single
// placement decision. Two structures live here:
//
//   - capIndex: per-catalog-type treaps of live nodes ordered by
//     (most-requested score desc, creation order asc), with subtree
//     minima of the used sums so a "most-requested node that fits" query
//     descends the tree instead of scanning the fleet. The comparator is
//     bit-for-bit the linear scan's: the stored score is computed by the
//     same cloudsim.MostRequestedFraction call from the same used sums,
//     and the fit test uses the same `Rel - used >= req` float expression
//     at both the pruning and acceptance levels, so the first in-order
//     fitting node IS the node the scan would have returned.
//
//   - podQueue: a binary max-heap of pending pods keyed by
//     (cpu+mem desc, enqueue sequence asc). sort.SliceStable on the old
//     slice queue compared only cpu+mem and preserved enqueue order among
//     equals; the explicit sequence number reproduces that stability, so
//     the heap pops pods in exactly the order the sorted slice yielded
//     them.
//
// Both structures are deterministic: treap priorities are a splitmix64
// hash of the node id (no RNG), and ties never consult anything but the
// creation/enqueue order. Golden files recorded from the linear-scan
// originals pin the decisions byte for byte, and capindex_test.go
// checks the treap against a linear-scan oracle.

// splitmix64 is the deterministic treap priority hash (node id → prio).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// capNode is one treap entry. It snapshots the node's free capacities
// at insert time; the cluster removes and re-inserts a node around
// every mutation, so the snapshot always equals the live value (Leaks
// audits this). Entries are allocated fresh on every add on purpose:
// Go's bump allocator places capNodes touched around the same time
// next to each other, so the query crawl over the recently-churned
// high-score plateau walks a compact memory region. (Embedding the
// capNode in the ~200-byte node struct was tried — zero allocations,
// but one cache line per visited node made firstFit ~40% slower.)
//
// Free capacity is stored instead of the used sums: the fit test
// `free >= req` needs no catalog lookup at query time, and the free
// values are computed by the exact `Rel - used` expression the
// reference scan evaluates, so the comparison outcomes are
// bit-identical. Trees are per catalog type on purpose — all entries
// of one tree share a machine size, so free capacity anti-correlates
// with score and the subtree maxima actually prune the near-full
// high-score plateau. (A single global tree was tried and measured
// ~3.5x worse: a nearly-full big machine still has more absolute free
// room than an empty small one, so mixed-type aggregates never cut.)
// Field order is deliberate: the first 64 bytes hold everything the
// query crawl reads per visited node (prune aggregates, fit snapshot,
// sort key, left child), so a visit costs one cache line; n and prio
// sit in the second line and are only touched on a hit or an insert.
type capNode struct {
	// Subtree maxima of the free snapshots: a subtree whose roomiest
	// corner cannot fit the request holds no fitting node at all.
	// maxSum is the subtree maximum of fcpu+fmem — the sharper prune on
	// the tree's too-full prefix, exactly where a most-requested-first
	// query starts: fitting (cpu, mem) requires fcpu+fmem >= cpu+mem,
	// and float addition is monotone, so a fitting node's free sum can
	// never round below the request sum and the prune can never skip a
	// node the scan would accept.
	maxCPU, maxMem, maxSum float64
	// maxMin is the subtree maximum of min(fcpu, fmem) — the balance
	// cut. A fitting node has fcpu >= cpu AND fmem >= mem, hence
	// min(fcpu, fmem) >= min(cpu, mem) (pure comparisons, no float
	// arithmetic at all). It is what lets a nil query die at the root:
	// when every node is full in at least one dimension, maxCPU and
	// maxMem still look healthy (different nodes supply each), but no
	// node has *both*, and maxMin says so directly.
	maxMin     float64
	fcpu, fmem float64 // free capacity snapshots (Rel - used at insert)
	score      float64 // MostRequestedFraction at insert time (the sort key)
	l, r       *capNode
	n          *node
	prio       uint64
}

// before is the in-order comparator: higher score first, then earlier
// creation (smaller id) — the exact preference order of the linear scan.
func (a *capNode) before(score float64, id int) bool {
	return a.score > score || (a.score == score && a.n.id < id)
}

// update recomputes the subtree aggregates from the children.
func (t *capNode) update() {
	t.maxCPU, t.maxMem = t.fcpu, t.fmem
	t.maxSum = t.fcpu + t.fmem
	t.maxMin = t.fcpu
	if t.fmem < t.fcpu {
		t.maxMin = t.fmem
	}
	if t.l != nil {
		if t.l.maxCPU > t.maxCPU {
			t.maxCPU = t.l.maxCPU
		}
		if t.l.maxMem > t.maxMem {
			t.maxMem = t.l.maxMem
		}
		if t.l.maxSum > t.maxSum {
			t.maxSum = t.l.maxSum
		}
		if t.l.maxMin > t.maxMin {
			t.maxMin = t.l.maxMin
		}
	}
	if t.r != nil {
		if t.r.maxCPU > t.maxCPU {
			t.maxCPU = t.r.maxCPU
		}
		if t.r.maxMem > t.maxMem {
			t.maxMem = t.r.maxMem
		}
		if t.r.maxSum > t.maxSum {
			t.maxSum = t.r.maxSum
		}
		if t.r.maxMin > t.maxMin {
			t.maxMin = t.r.maxMin
		}
	}
}

func rotRight(t *capNode) *capNode {
	l := t.l
	t.l = l.r
	l.r = t
	t.update()
	l.update()
	return l
}

func rotLeft(t *capNode) *capNode {
	r := t.r
	t.r = r.l
	r.l = t
	t.update()
	r.update()
	return r
}

func capInsert(t, cn *capNode) *capNode {
	if t == nil {
		cn.l, cn.r = nil, nil
		cn.update()
		return cn
	}
	if cn.before(t.score, t.n.id) {
		t.l = capInsert(t.l, cn)
		if t.l.prio > t.prio {
			return rotRight(t)
		}
	} else {
		t.r = capInsert(t.r, cn)
		if t.r.prio > t.prio {
			return rotLeft(t)
		}
	}
	t.update()
	return t
}

// capDelete removes the entry with the exact (score, id) key. The score
// must be the stored key (the node carries it in node.idxScore).
func capDelete(t *capNode, score float64, id int) *capNode {
	if t == nil {
		return nil
	}
	if t.n.id == id && t.score == score {
		// Merge children by priority.
		switch {
		case t.l == nil:
			return t.r
		case t.r == nil:
			return t.l
		case t.l.prio > t.r.prio:
			t = rotRight(t)
			t.r = capDelete(t.r, score, id)
		default:
			t = rotLeft(t)
			t.l = capDelete(t.l, score, id)
		}
	} else if score > t.score || (score == t.score && id < t.n.id) {
		t.l = capDelete(t.l, score, id)
	} else {
		t.r = capDelete(t.r, score, id)
	}
	t.update()
	return t
}

// firstFit returns the first node in (score desc, id asc) order whose
// free capacity covers (cpu, mem) — i.e. the most-requested fitting
// node, earliest-created among score ties. sum is cpu+mem, computed
// once by the caller. Subtrees are pruned through the aggregates; the
// per-dimension maxima use the same `free >= req` comparison as the
// acceptance test, and the free-sum maximum adds a necessary-condition
// cut (float addition is monotone, so a fitting node's free sum never
// rounds below the request sum) — pruning can never skip a node the
// scan would have accepted.
//
// (best, bestScore) is the incumbent from earlier trees in the
// cross-type combine: in-order position is monotone in preference, so
// the crawl stops outright at the first node that cannot beat it.
func (t *capNode) firstFit(cpu, mem, sum, qmin float64, best *node, bestScore float64) *node {
	for t != nil {
		if t.maxCPU < cpu || t.maxMem < mem || t.maxSum < sum || t.maxMin < qmin {
			return nil
		}
		if n := t.l.firstFit(cpu, mem, sum, qmin, best, bestScore); n != nil {
			return n
		}
		if best != nil && !t.before(bestScore, best.id) {
			return nil
		}
		if t.fcpu >= cpu && t.fmem >= mem {
			return t.n
		}
		t = t.r
	}
	return nil
}

// revEach walks the subtree in reverse order (score asc, id desc among
// equal scores reversed) calling visit until it returns false.
func (t *capNode) revEach(visit func(*node) bool) bool {
	if t == nil {
		return true
	}
	if !t.r.revEach(visit) {
		return false
	}
	if !visit(t.n) {
		return false
	}
	return t.l.revEach(visit)
}

// capIndex is the capacity index: one tree per catalog type, combined
// at query time by bestWholeFit and walked in reverse by the
// optimizer's neighborhood selection. Each node carries one embedded
// capNode, so maintenance never allocates.
type capIndex struct {
	trees []*capNode // one root per catalog type
	cat   []cloudsim.VMType
	size  int
	// ver counts mutations. Two equal ver values bracket a window in
	// which the indexed node multiset — and therefore every query
	// answer — was unchanged; the scheduler's blocked-head memo keys on
	// it to skip provably identical re-queries.
	ver uint64
}

func newCapIndex(cat []cloudsim.VMType) *capIndex {
	return &capIndex{trees: make([]*capNode, len(cat)), cat: cat}
}

// add indexes a live node under its current free capacities and score.
func (ci *capIndex) add(n *node, score float64) {
	t := ci.cat[n.typ]
	cn := &capNode{
		n: n, score: score,
		fcpu: t.RelCPU - n.usedCPU, fmem: t.RelMem - n.usedMem,
		prio: splitmix64(uint64(n.id)),
	}
	ci.trees[n.typ] = capInsert(ci.trees[n.typ], cn)
	ci.size++
	ci.ver++
}

// remove unindexes a node via its stored key.
func (ci *capIndex) remove(n *node, score float64) {
	ci.trees[n.typ] = capDelete(ci.trees[n.typ], score, n.id)
	ci.size--
	ci.ver++
}

// podEntry is one pending-queue entry.
type podEntry struct {
	key float64 // cpu+mem, fixed at enqueue (pod sizes never change)
	seq uint64  // global enqueue sequence: the stability tie-break
	idx int     // pod index
}

// podQueue is a binary max-heap by (key desc, seq asc).
type podQueue []podEntry

func (q podQueue) entryBefore(a, b podEntry) bool {
	return a.key > b.key || (a.key == b.key && a.seq < b.seq)
}

func (q *podQueue) push(e podEntry) {
	*q = append(*q, e)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.entryBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q podQueue) peek() podEntry { return q[0] }

// removeIdx deletes the entry naming pod idx: O(n) locate, then a
// bottom-up re-heapify. It only runs on the rare paths that retire a
// still-pending pod — a trace end event or a shard transfer-out — never
// per placement decision, so linear cost is fine.
func (q *podQueue) removeIdx(idx int) bool {
	h := *q
	for i := range h {
		if h[i].idx == idx {
			h[i] = h[len(h)-1]
			h = h[:len(h)-1]
			for j := len(h)/2 - 1; j >= 0; j-- {
				h.siftDown(j)
			}
			*q = h
			return true
		}
	}
	return false
}

// siftDown restores the heap property below j.
func (q podQueue) siftDown(j int) {
	for {
		l, r := 2*j+1, 2*j+2
		best := j
		if l < len(q) && q.entryBefore(q[l], q[best]) {
			best = l
		}
		if r < len(q) && q.entryBefore(q[r], q[best]) {
			best = r
		}
		if best == j {
			return
		}
		q[j], q[best] = q[best], q[j]
		j = best
	}
}

func (q *podQueue) pop() podEntry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && h.entryBefore(h[l], h[best]) {
			best = l
		}
		if r < len(h) && h.entryBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}
