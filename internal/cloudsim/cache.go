package cloudsim

import (
	"fmt"
	"slices"
	"strings"
)

// The packing cache: churn in a cluster lifecycle run repeatedly
// re-optimizes near-identical sub-fleets (a pod departs, its
// neighborhood re-packs, the same neighborhood comes back a few passes
// later), so optimizer sub-solutions are memoizable. The cache maps the
// canonical form of a candidate group — VMs and items sorted into a
// content-determined total order — to the improved placement
// OptimizeHostlo produced for it.
//
// Correctness rests on two properties:
//
//   - The key is derived from the commutative VMSig multiset of the
//     group, but a hit is only declared after an exact item-by-item
//     comparison of the stored canonical input against the probe — a
//     hash collision can never smuggle in the wrong placement.
//
//   - Callers canonicalize the group before consulting the cache
//     (CanonicalizePlacement), which makes the optimizer's output a
//     pure function of the group's content rather than its discovery
//     order. That is what lets a memoized result substitute for a
//     fresh OptimizeHostlo call byte for byte — and it holds whether
//     the cache is on or off, which is how cache-on and cache-off runs
//     stay identical.
//
// The cache is deliberately not safe for concurrent use: each cluster
// world owns one (parallel population fan-outs and shard worlds never
// share), and the cluster probes and installs in group type order so
// LRU order stays deterministic.

// CanonicalizePlacement sorts a placement into its canonical order, in
// place: items within each VM by (Pod, CPU, Mem), then VMs by content
// (type, item count, lexicographic items). Two groups holding the same
// VM multiset canonicalize to the same sequence regardless of the
// order churn discovered them in.
func CanonicalizePlacement(vms []PlacedVM) {
	for _, pv := range vms {
		sortItemsCanonical(pv.Items)
	}
	slices.SortFunc(vms, cmpPlacedVM)
}

// sortItemsCanonical orders items by (Pod, CPU, Mem) — an insertion
// sort, because candidate-node item lists are short and this must not
// allocate.
func sortItemsCanonical(items []PlacedItem) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && cmpPlacedItem(items[j], it) > 0 {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// cmpPlacedItem is the canonical item order: (Pod, CPU, Mem).
func cmpPlacedItem(a, b PlacedItem) int {
	if c := strings.Compare(a.Pod, b.Pod); c != 0 {
		return c
	}
	switch {
	case a.CPU < b.CPU:
		return -1
	case a.CPU > b.CPU:
		return 1
	}
	switch {
	case a.Mem < b.Mem:
		return -1
	case a.Mem > b.Mem:
		return 1
	}
	return 0
}

// cmpPlacedVM is the canonical VM order: (Type, item count,
// lexicographic canonical items). VMs that compare equal are
// content-identical, so their relative order is immaterial.
func cmpPlacedVM(a, b PlacedVM) int {
	if a.Type != b.Type {
		if a.Type < b.Type {
			return -1
		}
		return 1
	}
	if len(a.Items) != len(b.Items) {
		if len(a.Items) < len(b.Items) {
			return -1
		}
		return 1
	}
	for i := range a.Items {
		if c := cmpPlacedItem(a.Items[i], b.Items[i]); c != 0 {
			return c
		}
	}
	return 0
}

// packKey is the cache key: the group's VM and item counts plus a
// commutative 128-bit fold of the per-VM signatures. Commutativity
// makes the key a pure function of the group multiset; exact-input
// verification on lookup covers the residual collision risk.
type packKey struct {
	vms, items int
	a, b       uint64
}

// GroupKey digests a candidate group.
func GroupKey(vms []PlacedVM) packKey {
	k := packKey{vms: len(vms)}
	for _, pv := range vms {
		s := VMSigOf(pv.Type, pv.Items)
		h := mix64(s.A ^ mix64(s.B) ^ uint64(s.Type)<<32 ^ uint64(s.Count))
		k.a += h
		k.b += mix64(h)
		k.items += s.Count
	}
	return k
}

// packEntry is one cached sub-solution, linked into the LRU list by
// arena index.
type packEntry struct {
	key        packKey
	input      []PlacedVM // canonical group, deep-copied (verification)
	output     []PlacedVM // OptimizeHostlo(input) — treated as read-only
	prev, next int32      // LRU neighbours in PackCache.entries, -1 = none
}

// PackCache is a bounded LRU of Hostlo packing sub-solutions. The zero
// value is not usable; NewPackCache sizes it. A nil *PackCache is a
// valid always-miss cache, so callers can thread an optional cache
// without branching.
//
// Entries live in one arena and link by index. The arena grows to the
// capacity; from then on Put recycles the slot of the entry it evicts.
// A cache restored from a PackCacheIndex finds the restored entries
// through the index's shared, read-only key map, and only the keys it
// installs itself through its own map.
type PackCache struct {
	cap        int
	base       map[packKey]int32 // restored key → slot, shared read-only; stale once the slot is recycled
	m          map[packKey]int32 // installed key → slot
	entries    []packEntry
	head, tail int32 // head = most recently used; -1 when empty

	hits, misses, evictions uint64
}

// NewPackCache returns a cache bounded to capacity entries
// (capacity <= 0 returns nil: caching disabled).
func NewPackCache(capacity int) *PackCache {
	if capacity <= 0 {
		return nil
	}
	return &PackCache{cap: capacity, m: make(map[packKey]int32), head: -1, tail: -1}
}

// slot finds the arena slot holding key. A base entry is valid only
// while its slot still holds its key: a recycled slot belongs to the
// key installed into it, which m maps.
func (pc *PackCache) slot(key packKey) (int32, bool) {
	if i, ok := pc.m[key]; ok {
		return i, true
	}
	if i, ok := pc.base[key]; ok && pc.entries[i].key == key {
		return i, true
	}
	return -1, false
}

// Get returns the memoized improved placement for a canonical group,
// verifying the stored input matches exactly. The returned slice is
// owned by the cache: callers must treat it as read-only.
func (pc *PackCache) Get(group []PlacedVM) ([]PlacedVM, bool) {
	if pc == nil {
		return nil, false
	}
	i, ok := pc.slot(GroupKey(group))
	if !ok || !equalPlacement(pc.entries[i].input, group) {
		pc.misses++
		return nil, false
	}
	pc.hits++
	pc.moveToFront(i)
	return pc.entries[i].output, true
}

// Put installs the improved placement for a canonical group, deep-
// copying the group (whose backing arrays the caller reuses) and taking
// ownership of improved. Re-installing an existing key refreshes it.
func (pc *PackCache) Put(group, improved []PlacedVM) {
	if pc == nil {
		return
	}
	key := GroupKey(group)
	if i, ok := pc.slot(key); ok {
		e := &pc.entries[i]
		e.input = copyPlacement(group)
		e.output = improved
		pc.moveToFront(i)
		return
	}
	var i int32
	if len(pc.entries) >= pc.cap {
		i = pc.tail
		pc.unlink(i)
		delete(pc.m, pc.entries[i].key)
		pc.evictions++
	} else {
		i = int32(len(pc.entries))
		pc.entries = append(pc.entries, packEntry{})
	}
	pc.entries[i] = packEntry{key: key, input: copyPlacement(group), output: improved}
	pc.m[key] = i
	pc.pushFront(i)
}

// PackCacheEntry is one exported cache entry. Input and Output are the
// cache-owned slices, immutable once installed (Put replaces the entry's
// slice headers, never the backing arrays), so a snapshot and any number
// of clones can share them copy-on-write.
type PackCacheEntry struct {
	Input  []PlacedVM
	Output []PlacedVM
}

// PackCacheState is the complete state of a PackCache: capacity, the
// entries in recency order (most recently used first), and the lifetime
// counters. It is the snapshot form — a PackCacheIndex of it restores
// an identical cache, and because the entry slices are immutable the
// state can share them with a live cache.
type PackCacheState struct {
	Cap       int
	Entries   []PackCacheEntry
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// State captures the cache (nil cache → nil state). The entry slices
// are shared, not copied: they are immutable by the cache's ownership
// contract, so the state stays valid while the live cache keeps
// mutating its map and LRU order.
func (pc *PackCache) State() *PackCacheState {
	if pc == nil {
		return nil
	}
	st := &PackCacheState{
		Cap:       pc.cap,
		Entries:   make([]PackCacheEntry, 0, len(pc.entries)),
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
	}
	for i := pc.head; i >= 0; i = pc.entries[i].next {
		e := &pc.entries[i]
		st.Entries = append(st.Entries, PackCacheEntry{Input: e.input, Output: e.output})
	}
	return st
}

// PackCacheIndex is a captured state with every entry's key computed,
// checked duplicate-free and mapped to its position: the part of a
// restore that hashes. It is read-only, so one index restores any
// number of caches, concurrently, and they all share its key map and
// the state's entry slices (the cache never mutates installed slices).
type PackCacheIndex struct {
	st    *PackCacheState
	keys  []packKey         // keys[i] = GroupKey(st.Entries[i].Input)
	slots map[packKey]int32 // keys[i] → i
}

// IndexPackCache keys a captured state. A nil state, or one with a
// non-positive capacity, yields the nil index, which restores the nil
// always-miss cache.
func IndexPackCache(st *PackCacheState) (*PackCacheIndex, error) {
	if st == nil || st.Cap <= 0 {
		return nil, nil
	}
	n := len(st.Entries)
	if n > st.Cap {
		return nil, fmt.Errorf("cloudsim: pack cache state holds %d entries, capacity %d", n, st.Cap)
	}
	ix := &PackCacheIndex{st: st, keys: make([]packKey, n), slots: make(map[packKey]int32, n)}
	// From the least recent end: the order in which a duplicate has
	// always been reported.
	for i := n - 1; i >= 0; i-- {
		key := GroupKey(st.Entries[i].Input)
		if _, dup := ix.slots[key]; dup {
			return nil, fmt.Errorf("cloudsim: pack cache state has duplicate key (entry %d)", i)
		}
		ix.keys[i] = key
		ix.slots[key] = int32(i)
	}
	return ix, nil
}

// Restore builds a cache identical to the one the indexed state was
// captured from: same entries, LRU order and counters. It hashes
// nothing and builds no map: the cache looks its restored entries up in
// the index's key map.
func (ix *PackCacheIndex) Restore() *PackCache {
	if ix == nil {
		return nil
	}
	st, n := ix.st, len(ix.keys)
	pc := &PackCache{
		cap:       st.Cap,
		base:      ix.slots,
		m:         make(map[packKey]int32),
		entries:   make([]packEntry, n),
		head:      -1,
		tail:      -1,
		hits:      st.Hits,
		misses:    st.Misses,
		evictions: st.Evictions,
	}
	// Entries are in recency order, so arena slot i links to i-1 and
	// i+1.
	for i, key := range ix.keys {
		se := &st.Entries[i]
		pc.entries[i] = packEntry{key: key, input: se.Input, output: se.Output, prev: int32(i) - 1, next: int32(i) + 1}
	}
	if n > 0 {
		pc.entries[n-1].next = -1
		pc.head, pc.tail = 0, int32(n-1)
	}
	return pc
}

// Stats reports lifetime hit/miss/eviction counts.
func (pc *PackCache) Stats() (hits, misses, evictions uint64) {
	if pc == nil {
		return 0, 0, 0
	}
	return pc.hits, pc.misses, pc.evictions
}

// Len reports the number of cached sub-solutions.
func (pc *PackCache) Len() int {
	if pc == nil {
		return 0
	}
	return len(pc.entries)
}

func (pc *PackCache) pushFront(i int32) {
	e := &pc.entries[i]
	e.prev = -1
	e.next = pc.head
	if pc.head >= 0 {
		pc.entries[pc.head].prev = i
	}
	pc.head = i
	if pc.tail < 0 {
		pc.tail = i
	}
}

func (pc *PackCache) unlink(i int32) {
	e := &pc.entries[i]
	if e.prev >= 0 {
		pc.entries[e.prev].next = e.next
	} else {
		pc.head = e.next
	}
	if e.next >= 0 {
		pc.entries[e.next].prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (pc *PackCache) moveToFront(i int32) {
	if pc.head == i {
		return
	}
	pc.unlink(i)
	pc.pushFront(i)
}

// equalPlacement reports exact structural equality of two placements.
func equalPlacement(a, b []PlacedVM) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.Type != bv.Type || len(av.Items) != len(bv.Items) {
			return false
		}
		for j := range av.Items {
			if av.Items[j] != bv.Items[j] {
				return false
			}
		}
	}
	return true
}

// copyPlacement deep-copies a placement (one flat item arena, so a
// cached input is two allocations regardless of VM count).
func copyPlacement(vms []PlacedVM) []PlacedVM {
	total := 0
	for _, pv := range vms {
		total += len(pv.Items)
	}
	arena := make([]PlacedItem, 0, total)
	out := make([]PlacedVM, len(vms))
	for i, pv := range vms {
		start := len(arena)
		arena = append(arena, pv.Items...)
		out[i] = PlacedVM{Type: pv.Type, Items: arena[start:len(arena):len(arena)]}
	}
	return out
}
