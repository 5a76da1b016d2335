package cloudsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomFleet builds a seeded fleet of n VMs with quantized random
// loads (quantization makes waste ties common, exercising the ordinal
// tie-break).
func randomFleet(r *rand.Rand, n int) *fleet {
	cat := Catalog()
	f := &fleet{catalog: cat}
	pod := 0
	for i := 0; i < n; i++ {
		v := &vm{typ: r.Intn(len(cat))}
		for j := r.Intn(5); j > 0; j-- {
			t := cat[v.typ]
			cpu := float64(1+r.Intn(4)) / 16 * t.RelCPU
			mem := float64(1+r.Intn(4)) / 16 * t.RelMem
			if v.freeCPU(cat) < cpu || v.freeMem(cat) < mem {
				continue
			}
			v.place(item{pod: fmt.Sprintf("p%d", pod), cpu: cpu, mem: mem})
			pod++
		}
		f.vms = append(f.vms, v)
	}
	return f
}

// drainFleet builds a seeded fleet shaped like a drain-phase repack
// group: n VMs of one type, most of them lightly loaded by a few small
// containers (the pods that outlived their neighbours), a few still
// well filled — many consolidation sources and many viable targets.
func drainFleet(r *rand.Rand, n int) *fleet {
	cat := Catalog()
	typ := r.Intn(len(cat))
	t := cat[typ]
	f := &fleet{catalog: cat}
	pod := 0
	for i := 0; i < n; i++ {
		v := &vm{typ: typ}
		fill := 1 + r.Intn(3)
		if r.Intn(5) == 0 {
			fill = 6 + r.Intn(8)
		}
		for j := 0; j < fill; j++ {
			cpu := float64(1+r.Intn(6)) / 32 * t.RelCPU
			mem := float64(1+r.Intn(6)) / 32 * t.RelMem
			if v.freeCPU(cat) < cpu || v.freeMem(cat) < mem {
				break
			}
			v.place(item{pod: fmt.Sprintf("p%d", pod), cpu: cpu, mem: mem})
			pod++
		}
		f.vms = append(f.vms, v)
	}
	return f
}

// TestConsolidatePathsAgree forces consolidate through both target
// selection paths — linear scan and vmIndex segment tree — on
// identical seeded fleets and requires the resulting placements to
// match exactly. This is the contract that lets the threshold be a
// pure wall-clock knob. The fleets cover small mixed-type fleets and
// drain-phase groups of 300+ VMs, each consolidated twice in a row
// (the second pass starts from the emptied VMs the first one left).
func TestConsolidatePathsAgree(t *testing.T) {
	defer func(old int) { consolidateIndexThreshold = old }(consolidateIndexThreshold)
	check := func(name string, base *fleet) {
		t.Helper()
		scan, idx := base.clone(), base.clone()
		for pass := 0; pass < 2; pass++ {
			consolidateIndexThreshold = 1 << 30 // force the scan path
			scanMoved := scan.consolidate()
			consolidateIndexThreshold = 0 // force the index path
			idxMoved := idx.consolidate()
			if scanMoved != idxMoved {
				t.Fatalf("%s pass %d: scan moved=%v, index moved=%v", name, pass, scanMoved, idxMoved)
			}
			if !reflect.DeepEqual(scan.vms, idx.vms) {
				t.Fatalf("%s pass %d: fleets diverged after consolidate", name, pass)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		check(fmt.Sprintf("seed %d (n=%d)", seed, n), randomFleet(r, n))
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 300 + r.Intn(120)
		check(fmt.Sprintf("drain seed %d (n=%d)", seed, n), drainFleet(r, n))
	}
}

// TestVMIndexFirstFitMatchesScan cross-checks the segment tree's query
// against the brute-force scan under interleaved remove, refresh and
// query traffic, at every fleet size from 1 to 400 (sizes that are and
// are not powers of two, so padding leaves are exercised too).
func TestVMIndexFirstFitMatchesScan(t *testing.T) {
	cat := Catalog()
	var ix vmIndex
	for n := 1; n <= 400; n++ {
		r := rand.New(rand.NewSource(int64(n)))
		f := randomFleet(r, n)
		ix.reset(f)
		live := make([]bool, n)
		for i := range live {
			live[i] = true
		}
		load := func(v *vm) {
			t := cat[v.typ]
			v.usedCPU = float64(r.Intn(9)) / 8 * t.RelCPU
			v.usedMem = float64(r.Intn(9)) / 8 * t.RelMem
		}
		for op := 0; op < 60; op++ {
			ord := r.Intn(n)
			switch k := r.Intn(10); {
			case k < 2: // remove
				ix.set(ord, absentSlot)
				live[ord] = false
			case k < 5: // refresh (re-adds a removed VM) with a new load
				load(f.vms[ord])
				ix.set(ord, slotOf(f.vms[ord], cat))
				live[ord] = true
			default: // query
				// A request sized against a random catalog type, so
				// every VM size sees fitting and non-fitting queries.
				typ := cat[r.Intn(len(cat))]
				cpu := float64(r.Intn(9)) / 16 * typ.RelCPU
				mem := float64(r.Intn(9)) / 16 * typ.RelMem
				want := -1
				for i, v := range f.vms {
					if !live[i] || v.freeCPU(cat) < cpu || v.freeMem(cat) < mem {
						continue
					}
					if want < 0 || v.waste(cat) > f.vms[want].waste(cat) {
						want = i
					}
				}
				if got := ix.firstFit(cpu, mem); got != want {
					t.Fatalf("n=%d op %d: query (%v, %v): scan picked ord %d, index ord %d", n, op, cpu, mem, want, got)
				}
			}
		}
	}
}
