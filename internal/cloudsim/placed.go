package cloudsim

import (
	"math"
	"strconv"
)

// This file is the exported face of the packing machinery, consumed by
// internal/cluster: the lifecycle simulator keeps live per-node state,
// but its placement decisions must be *the same code* as the static
// Fig. 9 pricing — that is what makes a no-churn cluster run converge
// to the static packing exactly, not merely approximately.

// PlacedItem is one placed container, labeled with its owning pod.
type PlacedItem struct {
	Pod      string
	CPU, Mem float64
}

// PlacedVM is one VM (an index into the catalog) with its contents.
type PlacedVM struct {
	Type  int
	Items []PlacedItem
}

// CheapestFitting returns the index of the cheapest catalog type able
// to host (cpu, mem), or -1 when the request exceeds every machine.
func CheapestFitting(catalog []VMType, cpu, mem float64) int {
	return cheapestFitting(catalog, cpu, mem)
}

// MostRequestedFraction is the §5.3.1 "most requested" score of a VM
// with the given load: the mean of its used CPU and memory fractions.
func MostRequestedFraction(t VMType, usedCPU, usedMem float64) float64 {
	return (usedCPU/t.RelCPU + usedMem/t.RelMem) / 2
}

// toFleet converts an exported placement into the internal fleet form,
// preserving VM order and item order — the optimizer's passes use
// stable sorts, so order is part of its determinism contract.
// The conversion builds into the scratch's recycled input buffer (vm
// structs, one flat full-capacity-sliced item store): the lifecycle
// optimizer runs this per candidate group, millions of times at trace
// scale, and improveHostlo only reads its input fleet (it clones before
// mutating), so the input can die with the scratch. The used sums
// accumulate in item order, exactly as the old per-item place() calls
// did, so the floats come out bit-identical.
func toFleet(vms []PlacedVM, catalog []VMType, sc *optScratch) *fleet {
	total := 0
	for i := range vms {
		total += len(vms[i].Items)
	}
	b := &sc.in
	if cap(b.vms) < len(vms) {
		b.vms = make([]*vm, len(vms))
		b.varena = make([]vm, len(vms))
	}
	b.vms, b.varena = b.vms[:len(vms)], b.varena[:len(vms)]
	iarena := b.iarena[:0]
	if cap(iarena) < total {
		iarena = make([]item, 0, total)
	}
	for i := range vms {
		pv := &vms[i]
		v := &b.varena[i]
		*v = vm{typ: pv.Type}
		is := len(iarena)
		for _, it := range pv.Items {
			iarena = append(iarena, item{pod: it.Pod, cpu: it.CPU, mem: it.Mem})
			v.usedCPU += it.CPU
			v.usedMem += it.Mem
		}
		v.items = iarena[is:len(iarena):len(iarena)]
		b.vms[i] = v
	}
	b.iarena = iarena
	b.f = fleet{catalog: catalog, vms: b.vms, scratch: sc}
	return &b.f
}

// fromFleet converts back, preserving order, into one flat item arena
// (full-capacity sub-slices keep any later append from clobbering a
// neighbor).
func fromFleet(f *fleet) []PlacedVM {
	total := 0
	for _, v := range f.vms {
		total += len(v.items)
	}
	out := make([]PlacedVM, 0, len(f.vms))
	arena := make([]PlacedItem, 0, total)
	for _, v := range f.vms {
		is := len(arena)
		for _, it := range v.items {
			arena = append(arena, PlacedItem{Pod: it.pod, CPU: it.cpu, Mem: it.mem})
		}
		out = append(out, PlacedVM{Type: v.typ, Items: arena[is:len(arena):len(arena)]})
	}
	return out
}

// OptimizeHostlo runs the paper's step-4 optimizer (consolidate + split
// + shrink passes, cost-monotone: the result never costs more than the
// input) over an existing placement and returns the improved one.
// Conversion preserves VM and item order, so feeding it the placement a
// whole-pod pass produced yields exactly the fleet improveHostlo would
// have produced in the static pipeline.
func OptimizeHostlo(vms []PlacedVM, catalog []VMType) []PlacedVM {
	if len(vms) == 0 {
		return nil
	}
	// Check a recycled scratch out of the pool for this call's private
	// fleet chain, input included; everything the optimizer built
	// aliases it, so it goes back only after fromFleet has copied the
	// result out.
	sc := scratchPool.Get().(*optScratch)
	out := fromFleet(improveHostlo(toFleet(vms, catalog, sc)))
	scratchPool.Put(sc)
	return out
}

// VMSig is the canonical content digest of one placed VM in comparable
// struct form: catalog type, item count and an order-independent
// 128-bit hash of the item multiset (two independent accumulators over
// per-item FNV-1a hashes; summing makes the digest invariant under
// item order, which is what "same machine" means). The cluster
// simulator's incremental reconciliation uses it as a map key to match
// optimizer output back onto existing nodes — a VM whose signature
// survives a pass is the same machine, so its cost clock keeps running
// — and the packing cache folds it into group keys. This is the
// reconciliation hot path: a comparable struct costs no allocation at
// all, where even raw-bit string formatting allocated per call.
type VMSig struct {
	Type  int
	Count int
	A, B  uint64
}

// VMSigOf digests one placed VM (see VMSig).
func VMSigOf(typ int, items []PlacedItem) VMSig {
	var a, b uint64
	for _, it := range items {
		h := itemHash(it)
		a += h
		b += mix64(h)
	}
	return VMSig{Type: typ, Count: len(items), A: a, B: b}
}

// AppendSigs appends VMSigOf of each VM of vms to dst, in order.
func AppendSigs(dst []VMSig, vms []PlacedVM) []VMSig {
	for _, pv := range vms {
		dst = append(dst, VMSigOf(pv.Type, pv.Items))
	}
	return dst
}

// VMSignature is VMSigOf rendered as a string, the original exported
// form (kept for callers that want a printable digest).
func VMSignature(typ int, items []PlacedItem) string {
	s := VMSigOf(typ, items)
	buf := make([]byte, 0, 48)
	buf = strconv.AppendInt(buf, int64(s.Type), 10)
	buf = append(buf, ';')
	buf = strconv.AppendInt(buf, int64(s.Count), 10)
	buf = append(buf, ';')
	buf = strconv.AppendUint(buf, s.A, 16)
	buf = append(buf, ';')
	buf = strconv.AppendUint(buf, s.B, 16)
	return string(buf)
}

// mix64 is splitmix64, the same bit mixer capindex.go uses.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// itemHash is FNV-1a over the item's pod name and the raw bits of its
// requests — exact float identity, no decimal rounding.
func itemHash(it PlacedItem) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(it.Pod); i++ {
		h = (h ^ uint64(it.Pod[i])) * prime64
	}
	for _, bits := range [2]uint64{math.Float64bits(it.CPU), math.Float64bits(it.Mem)} {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (bits >> s & 0xff)) * prime64
		}
	}
	return h
}

// PlacementCostPerH prices a placement per hour (sequential sum in VM
// order, matching the internal fleet costing exactly).
func PlacementCostPerH(vms []PlacedVM, catalog []VMType) float64 {
	var c float64
	for _, v := range vms {
		c += catalog[v.Type].PricePerH
	}
	return c
}
