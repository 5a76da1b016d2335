package cloudsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randGroup builds a random canonical candidate group: VMs of one
// catalog type filled with random small containers, the shape
// optimizeGroups hands to the cache.
func randGroup(r *rand.Rand, tag string) []PlacedVM {
	cat := Catalog()
	typ := r.Intn(len(cat))
	var vms []PlacedVM
	for v, nv := 0, 1+r.Intn(4); v < nv; v++ {
		var items []PlacedItem
		for i, ni := 0, r.Intn(5); i < ni; i++ {
			items = append(items, PlacedItem{
				Pod: fmt.Sprintf("%s-p%d-%d", tag, v, i),
				CPU: float64(1+r.Intn(8)) / 40,
				Mem: float64(1+r.Intn(8)) / 40,
			})
		}
		vms = append(vms, PlacedVM{Type: typ, Items: items})
	}
	CanonicalizePlacement(vms)
	return vms
}

// shuffled deep-copies a group with VM and item order permuted — the
// same multiset as churn would rediscover it in a different order.
func shuffled(r *rand.Rand, vms []PlacedVM) []PlacedVM {
	out := copyPlacement(vms)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for _, pv := range out {
		r.Shuffle(len(pv.Items), func(i, j int) { pv.Items[i], pv.Items[j] = pv.Items[j], pv.Items[i] })
	}
	return out
}

// TestCanonicalizePlacementOrderInvariant: any permutation of the same
// VM/item multiset canonicalizes to the identical sequence — the
// property that makes the cache key content-addressed.
func TestCanonicalizePlacementOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := randGroup(r, fmt.Sprintf("t%d", trial))
		p := shuffled(r, g)
		CanonicalizePlacement(p)
		// equalPlacement, not DeepEqual: copyPlacement turns a nil item
		// list into an empty one, which is the same placement.
		if !equalPlacement(g, p) {
			t.Fatalf("trial %d: canonical forms differ:\n%v\nvs\n%v", trial, g, p)
		}
		if GroupKey(g) != GroupKey(p) {
			t.Fatalf("trial %d: keys differ for identical canonical groups", trial)
		}
	}
}

// TestPackCacheHitMatchesFresh is the memoization property the whole
// cache rests on: for a canonicalized group, a cache hit returns
// exactly what a fresh OptimizeHostlo call on the probe would — even
// when the probe was discovered in a different order.
func TestPackCacheHitMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pc := NewPackCache(64)
	for trial := 0; trial < 100; trial++ {
		g := randGroup(r, fmt.Sprintf("h%d", trial))
		out := OptimizeHostlo(g, Catalog())
		pc.Put(g, out)
		probe := shuffled(r, g)
		CanonicalizePlacement(probe)
		cached, ok := pc.Get(probe)
		if !ok {
			t.Fatalf("trial %d: canonical probe missed", trial)
		}
		fresh := OptimizeHostlo(probe, Catalog())
		if !reflect.DeepEqual(cached, fresh) {
			t.Fatalf("trial %d: cached placement differs from fresh optimize:\n%v\nvs\n%v",
				trial, cached, fresh)
		}
	}
	hits, misses, _ := pc.Stats()
	if hits != 100 || misses != 0 {
		t.Fatalf("stats: %d hits %d misses, want 100/0", hits, misses)
	}
}

// TestPackCacheLRUEviction pins the bounded-LRU discipline: capacity is
// a hard bound, the least recently used entry is the one evicted, and
// Get refreshes recency.
func TestPackCacheLRUEviction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pc := NewPackCache(2)
	a := randGroup(r, "a")
	b := randGroup(r, "b")
	c := randGroup(r, "c")
	pc.Put(a, OptimizeHostlo(a, Catalog()))
	pc.Put(b, OptimizeHostlo(b, Catalog()))
	// Touch a so b becomes the LRU entry.
	if _, ok := pc.Get(a); !ok {
		t.Fatal("a missing before eviction")
	}
	pc.Put(c, OptimizeHostlo(c, Catalog()))
	if pc.Len() != 2 {
		t.Fatalf("len %d after eviction, want 2", pc.Len())
	}
	if _, ok := pc.Get(b); ok {
		t.Fatal("b survived — LRU should have evicted it")
	}
	if _, ok := pc.Get(a); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if _, ok := pc.Get(c); !ok {
		t.Fatal("c missing right after install")
	}
	if _, _, ev := pc.Stats(); ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
}

// TestPackCacheCollisionVerify pins the exact-input check: even when
// the 128-bit key matches, a probe whose content differs from the
// stored input must miss — a hash collision can never smuggle in the
// wrong placement. The collision is forged by installing an entry
// under the probe's key with different content.
func TestPackCacheCollisionVerify(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pc := NewPackCache(4)
	stored := randGroup(r, "x")
	probe := copyPlacement(stored)
	// Perturb the probe's content without changing counts, then forge
	// the collision: map the probe's key to the stored entry.
	probe[0].Items = append(probe[0].Items, PlacedItem{Pod: "ghost", CPU: 0.05, Mem: 0.05})
	CanonicalizePlacement(probe)
	pc.Put(stored, nil)
	pc.m[GroupKey(probe)] = pc.m[GroupKey(stored)]
	if _, ok := pc.Get(probe); ok {
		t.Fatal("colliding probe hit — exact-input verification is broken")
	}
	if _, misses, _ := pc.Stats(); misses != 1 {
		t.Fatalf("misses %d, want 1", misses)
	}
}

// TestPackCachePutRefresh: re-installing an existing key replaces the
// entry in place without growing the cache.
func TestPackCachePutRefresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pc := NewPackCache(4)
	g := randGroup(r, "r")
	out1 := OptimizeHostlo(g, Catalog())
	pc.Put(g, out1)
	pc.Put(g, out1)
	if pc.Len() != 1 {
		t.Fatalf("len %d after double install, want 1", pc.Len())
	}
}

// TestNilPackCacheIsAlwaysMiss: a nil cache is the documented off
// switch — every operation is a safe no-op.
func TestNilPackCacheIsAlwaysMiss(t *testing.T) {
	var pc *PackCache
	r := rand.New(rand.NewSource(19))
	g := randGroup(r, "n")
	pc.Put(g, nil)
	if _, ok := pc.Get(g); ok {
		t.Fatal("nil cache hit")
	}
	if pc.Len() != 0 {
		t.Fatal("nil cache non-empty")
	}
	if h, m, e := pc.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatal("nil cache has stats")
	}
}

// TestRestoredPackCacheMatchesOriginal: a cache restored from a
// captured state behaves exactly like the cache it was captured from
// under any later sequence of probes and installs — same hits, same
// evictions, same LRU order — including after the restored entries'
// arena slots are recycled for new keys and old keys come back. Two
// caches restored from one index stay independent.
func TestRestoredPackCacheMatchesOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var pool [][]PlacedVM
	for i := 0; i < 24; i++ {
		pool = append(pool, randGroup(r, fmt.Sprintf("k%d", i)))
	}
	outs := make([][]PlacedVM, len(pool))
	for i, g := range pool {
		outs[i] = OptimizeHostlo(g, Catalog())
	}
	step := func(pc *PackCache, op, gi int) bool {
		if op == 0 {
			_, ok := pc.Get(pool[gi])
			return ok
		}
		pc.Put(pool[gi], outs[gi])
		return false
	}
	for trial := 0; trial < 50; trial++ {
		orig := NewPackCache(8)
		for k := 0; k < 30; k++ {
			step(orig, r.Intn(2), r.Intn(len(pool)))
		}
		ix, err := IndexPackCache(orig.State())
		if err != nil {
			t.Fatal(err)
		}
		a, b := ix.Restore(), ix.Restore()
		for k := 0; k < 200; k++ {
			op, gi := r.Intn(2), r.Intn(len(pool))
			want := step(orig, op, gi)
			if got := step(a, op, gi); got != want {
				t.Fatalf("trial %d step %d: restored hit=%v, original %v", trial, k, got, want)
			}
			if !reflect.DeepEqual(a.State(), orig.State()) || a.Len() != orig.Len() {
				t.Fatalf("trial %d step %d: restored cache state diverged from the original", trial, k)
			}
		}
		// b saw none of those operations: still the captured state.
		if !reflect.DeepEqual(b.State(), ix.st) {
			t.Fatalf("trial %d: a sibling restore changed the other one", trial)
		}
	}
}

// TestIndexPackCacheRejectsBadState: a state whose entries outnumber its
// capacity, or that holds one group twice, fails to index.
func TestIndexPackCacheRejectsBadState(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	g := randGroup(r, "d")
	e := PackCacheEntry{Input: g, Output: g}
	if _, err := IndexPackCache(&PackCacheState{Cap: 4, Entries: []PackCacheEntry{e, e}}); err == nil {
		t.Error("duplicate entries indexed")
	}
	if _, err := IndexPackCache(&PackCacheState{Cap: 1, Entries: []PackCacheEntry{e, {Input: randGroup(r, "e")}}}); err == nil {
		t.Error("entries past capacity indexed")
	}
	if ix, err := IndexPackCache(&PackCacheState{Cap: 0}); ix != nil || err != nil || ix.Restore() != nil {
		t.Error("a zero-capacity state must restore the nil cache")
	}
}
