package cloudsim

import (
	"math"
	"math/bits"
)

// vmIndex is consolidate's target index: it answers "the most-wasted
// VM whose free CPU and memory cover (cpu, mem), earliest fleet
// position among equals" — exactly the linear scan's pick — without
// scanning the fleet.
//
// It is a pointer-free segment tree over fleet ordinals in one array
// (heap layout: node 1 is the root, node i's children are 2i and 2i+1,
// leaf ord sits at size+ord). A leaf holds its VM's free CPU, free
// memory and waste; an internal node holds the maxima of its children.
// A query is a branch-and-bound descent (see search). Updating a VM
// rewrites its leaf and the ancestors whose maxima change. Absent VMs
// (the consolidation source, ordinals past the fleet) hold -Inf
// everywhere and never fit.
type vmIndex struct {
	size  int       // leaf count, a power of two >= the fleet size
	t     []vmSlot  // 2*size nodes; t[0] is unused
	stack []vmFrame // search scratch
}

// vmSlot is one tree node: a VM's free capacities and waste at a leaf,
// their per-field maxima over the subtree at an internal node.
type vmSlot struct{ cpu, mem, waste float64 }

var absentSlot = vmSlot{math.Inf(-1), math.Inf(-1), math.Inf(-1)}

func slotOf(v *vm, c []VMType) vmSlot {
	return vmSlot{cpu: v.freeCPU(c), mem: v.freeMem(c), waste: v.waste(c)}
}

func maxSlot(a, b vmSlot) vmSlot {
	return vmSlot{cpu: max(a.cpu, b.cpu), mem: max(a.mem, b.mem), waste: max(a.waste, b.waste)}
}

// reset rebuilds the index over every VM of f, reusing its storage
// (consolidate rebuilds it on every call): leaves in fleet order, then
// the internal nodes bottom-up, O(n).
func (ix *vmIndex) reset(f *fleet) {
	size := 1
	for size < len(f.vms) {
		size <<= 1
	}
	ix.size = size
	if cap(ix.t) < 2*size {
		ix.t = make([]vmSlot, 2*size)
	}
	ix.t = ix.t[:2*size]
	leaves := ix.t[size:]
	for i, v := range f.vms {
		leaves[i] = slotOf(v, f.catalog)
	}
	for i := len(f.vms); i < size; i++ {
		leaves[i] = absentSlot
	}
	for i := size - 1; i >= 1; i-- {
		ix.t[i] = maxSlot(ix.t[2*i], ix.t[2*i+1])
	}
}

// set rewrites ordinal ord's leaf and walks up, stopping at the first
// ancestor whose maxima do not change (nothing above it can change
// either).
func (ix *vmIndex) set(ord int, s vmSlot) {
	i := ix.size + ord
	ix.t[i] = s
	for i > 1 {
		i >>= 1
		m := maxSlot(ix.t[2*i], ix.t[2*i+1])
		if m == ix.t[i] {
			return
		}
		ix.t[i] = m
	}
}

// firstFit returns the ordinal of the first VM in the scan's preference
// order (waste desc, ordinal asc) whose free capacities cover
// (cpu, mem), or -1.
func (ix *vmIndex) firstFit(cpu, mem float64) int { return ix.search(cpu, mem, false) }

// anyFit reports whether some VM's free capacities cover (cpu, mem).
func (ix *vmIndex) anyFit(cpu, mem float64) bool { return ix.search(cpu, mem, true) >= 0 }

// search is a depth-first branch-and-bound descent. A subtree is
// pruned when its free-capacity maxima fall short of the request, when
// its waste maximum is below cpu+mem (a fit's waste is its free CPU
// plus its free memory, and float addition is monotone), or when it
// cannot beat the incumbent: its waste maximum is lower, or equal with
// every ordinal in it past the incumbent's. The child with the larger
// waste maximum goes first (the left one on a tie), so a strong
// incumbent is found early; with exists set, the first fit ends the
// search.
func (ix *vmIndex) search(cpu, mem float64, exists bool) int {
	stack := ix.stack[:0] // deferred siblings, at most one per level
	best, bestW := -1, math.Inf(-1)
	i, lo := 1, 0
	need := cpu + mem
	for {
		s := &ix.t[i]
		if s.cpu >= cpu && s.mem >= mem && s.waste >= need &&
			(s.waste > bestW || (s.waste == bestW && lo < best)) {
			if i >= ix.size {
				if exists {
					break
				}
				best, bestW = lo, s.waste
			} else {
				// Node i at depth d covers size>>d ordinals; its
				// children split them in half.
				half := ix.size >> bits.Len(uint(i))
				l := 2 * i
				if ix.t[l+1].waste > ix.t[l].waste {
					stack = append(stack, vmFrame{l, lo})
					i, lo = l+1, lo+half
				} else {
					stack = append(stack, vmFrame{l + 1, lo + half})
					i = l
				}
				continue
			}
		}
		if len(stack) == 0 {
			ix.stack = stack
			return best
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, lo = f.i, f.lo
	}
	ix.stack = stack
	return lo
}

// vmFrame is a subtree search has yet to visit: node i, first ordinal lo.
type vmFrame struct{ i, lo int }
