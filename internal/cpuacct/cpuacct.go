// Package cpuacct accounts simulated CPU time the way the paper's
// evaluation reports it (§5.2.3, §5.3.4): per entity (the host, a VM, an
// application inside a VM) and per category:
//
//   - usr   — software work in user space
//   - sys   — kernel work excluding interrupt handling (syscalls, bridge
//     forwarding, device emulation in the host kernel such as vhost)
//   - soft  — kernel work serving software interrupts (netfilter hooks,
//     NAPI-like RX processing)
//   - guest — host CPU time given to a guest VM
//
// Every Station service interval in the network simulator is billed here,
// so the breakdown figures (6, 7, 14, 15) come out of the same events that
// produce throughput and latency.
package cpuacct

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Category is one of the paper's CPU usage classes.
type Category int

// The categories, in the order the paper's figures stack them.
const (
	Usr Category = iota
	Sys
	Soft
	Guest
	numCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case Usr:
		return "usr"
	case Sys:
		return "sys"
	case Soft:
		return "soft"
	case Guest:
		return "guest"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all categories in display order.
func Categories() []Category { return []Category{Usr, Sys, Soft, Guest} }

// Usage is accumulated CPU time for one entity, broken down by category.
// The zero value is an empty usage ready to use.
type Usage struct {
	byCat [numCategories]time.Duration
}

// Add accumulates d into category c. Negative durations are ignored.
func (u *Usage) Add(c Category, d time.Duration) {
	if !billable(c, d) {
		return
	}
	u.byCat[c] += d
}

// billable reports whether a charge of d in category c records anything.
func billable(c Category, d time.Duration) bool {
	return d > 0 && c >= 0 && c < numCategories
}

// Of returns the accumulated time in category c.
func (u Usage) Of(c Category) time.Duration {
	if c < 0 || c >= numCategories {
		return 0
	}
	return u.byCat[c]
}

// Total returns the sum over all categories.
func (u Usage) Total() time.Duration {
	var t time.Duration
	for _, d := range u.byCat {
		t += d
	}
	return t
}

// Sub returns u minus v, clamping each category at zero. It is used to
// measure a window: snapshot before, snapshot after, subtract.
func (u Usage) Sub(v Usage) Usage {
	var out Usage
	for i := range u.byCat {
		d := u.byCat[i] - v.byCat[i]
		if d < 0 {
			d = 0
		}
		out.byCat[i] = d
	}
	return out
}

// Plus returns the category-wise sum of u and v.
func (u Usage) Plus(v Usage) Usage {
	var out Usage
	for i := range u.byCat {
		out.byCat[i] = u.byCat[i] + v.byCat[i]
	}
	return out
}

// Cores converts the usage into mean cores consumed over the elapsed
// window (the unit of the paper's CPU figures). Zero elapsed yields zeros.
func (u Usage) Cores(elapsed time.Duration) map[Category]float64 {
	out := make(map[Category]float64, numCategories)
	for i := Category(0); i < numCategories; i++ {
		if elapsed > 0 {
			out[i] = float64(u.byCat[i]) / float64(elapsed)
		} else {
			out[i] = 0
		}
	}
	return out
}

// String formats the usage as "usr=… sys=… soft=… guest=…".
func (u Usage) String() string {
	var b strings.Builder
	for i, c := range Categories() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", c, u.byCat[c])
	}
	return b.String()
}

// Accountant accumulates usage per named entity. Entity naming
// convention used across nestless:
//
//	"host"            — the physical machine's kernel and userspace
//	"vm/<name>"       — a guest VM as a whole (host view: guest time)
//	"app/<name>"      — an application inside a guest (guest view)
//
// The zero value is NOT ready to use; call New.
type Accountant struct {
	usages map[string]*Usage
	// gen identifies the current usages map; Reset bumps it so that
	// Billers resolved against the old map re-resolve. It starts at 1,
	// so a Biller's zero gen always means "not resolved yet".
	gen uint64
}

// New returns an empty accountant.
func New() *Accountant {
	return &Accountant{usages: make(map[string]*Usage), gen: 1}
}

// Record bills d of category c to entity. A charge that records nothing
// (d <= 0 or an unknown category) creates no entity.
func (a *Accountant) Record(entity string, c Category, d time.Duration) {
	if !billable(c, d) {
		return
	}
	a.usage(entity).byCat[c] += d
}

// usage returns the entity's live usage cell, creating it.
func (a *Accountant) usage(entity string) *Usage {
	u, ok := a.usages[entity]
	if !ok {
		u = &Usage{}
		a.usages[entity] = u
	}
	return u
}

// Usage returns a copy of the entity's accumulated usage. Unknown
// entities report zero usage.
func (a *Accountant) Usage(entity string) Usage {
	if u, ok := a.usages[entity]; ok {
		return *u
	}
	return Usage{}
}

// Entities returns all entity names with recorded usage, sorted.
func (a *Accountant) Entities() []string {
	names := make([]string, 0, len(a.usages))
	for n := range a.usages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalFor sums the usage of all entities whose name has the given
// prefix, e.g. "vm/" for all guests.
func (a *Accountant) TotalFor(prefix string) Usage {
	var total Usage
	for name, u := range a.usages {
		if strings.HasPrefix(name, prefix) {
			total = total.Plus(*u)
		}
	}
	return total
}

// Reset clears all recorded usage. Billers stay valid: their next charge
// lands in the fresh accounting period.
func (a *Accountant) Reset() {
	a.usages = make(map[string]*Usage)
	a.gen++
}

// Biller bills one CPU lane: every charge goes to entity and, when
// guestOf is non-empty, is mirrored to guestOf as Guest time (the host
// view of vCPU execution). It is the datapath's per-charge billing path,
// so it looks the two entities up once, on the first charge that records
// anything, and then adds to their usage cells directly; a Reset of the
// accountant makes it look them up again. A lane that never bills
// anything creates no entity. A charge that records anything is billed
// exactly as Record(entity, c, d) followed, with guestOf set, by
// Record(guestOf, Guest, d); any other charge is ignored whole.
type Biller struct {
	acct            *Accountant
	entity, guestOf string
	gen             uint64 // acct.gen the cells below belong to
	u, g            *Usage
}

// NewBiller returns a biller for entity (mirrored to guestOf, if set) on a.
func NewBiller(a *Accountant, entity, guestOf string) *Biller {
	return &Biller{acct: a, entity: entity, guestOf: guestOf}
}

// Bill records d of category c on the biller's entity and mirrors it as
// guest time.
func (b *Biller) Bill(c Category, d time.Duration) {
	if !billable(c, d) {
		return
	}
	if b.gen != b.acct.gen {
		b.u = b.acct.usage(b.entity)
		b.g = nil
		if b.guestOf != "" {
			b.g = b.acct.usage(b.guestOf)
		}
		b.gen = b.acct.gen
	}
	b.u.byCat[c] += d
	if b.g != nil {
		b.g.byCat[Guest] += d
	}
}
