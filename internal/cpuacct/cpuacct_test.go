package cpuacct

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestUsageAddAndTotal(t *testing.T) {
	var u Usage
	u.Add(Usr, 10*time.Millisecond)
	u.Add(Sys, 5*time.Millisecond)
	u.Add(Soft, 2*time.Millisecond)
	u.Add(Guest, 40*time.Millisecond)
	if u.Of(Usr) != 10*time.Millisecond || u.Of(Soft) != 2*time.Millisecond {
		t.Fatalf("per-category reads wrong: %v", u)
	}
	if u.Total() != 57*time.Millisecond {
		t.Fatalf("Total = %v, want 57ms", u.Total())
	}
}

func TestUsageIgnoresInvalid(t *testing.T) {
	var u Usage
	u.Add(Usr, -time.Second)
	u.Add(Category(99), time.Second)
	u.Add(Category(-1), time.Second)
	if u.Total() != 0 {
		t.Fatalf("invalid adds must be ignored, got %v", u.Total())
	}
	if u.Of(Category(99)) != 0 {
		t.Fatal("out-of-range Of must be 0")
	}
}

func TestUsageSubClampsAtZero(t *testing.T) {
	var a, b Usage
	a.Add(Usr, 10*time.Millisecond)
	b.Add(Usr, 3*time.Millisecond)
	b.Add(Sys, 99*time.Millisecond)
	d := a.Sub(b)
	if d.Of(Usr) != 7*time.Millisecond {
		t.Fatalf("Sub usr = %v, want 7ms", d.Of(Usr))
	}
	if d.Of(Sys) != 0 {
		t.Fatalf("Sub must clamp at zero, got %v", d.Of(Sys))
	}
}

func TestUsageCores(t *testing.T) {
	var u Usage
	u.Add(Sys, 500*time.Millisecond)
	cores := u.Cores(time.Second)
	if cores[Sys] != 0.5 {
		t.Fatalf("Cores[sys] = %v, want 0.5", cores[Sys])
	}
	if cores[Usr] != 0 {
		t.Fatalf("Cores[usr] = %v, want 0", cores[Usr])
	}
	zero := u.Cores(0)
	if zero[Sys] != 0 {
		t.Fatal("zero elapsed must report zero cores")
	}
}

func TestAccountantRecordAndQuery(t *testing.T) {
	a := New()
	a.Record("host", Sys, time.Second)
	a.Record("vm/web", Guest, 2*time.Second)
	a.Record("vm/db", Guest, 3*time.Second)
	a.Record("app/nginx", Usr, 100*time.Millisecond)

	if a.Usage("host").Of(Sys) != time.Second {
		t.Fatal("host sys wrong")
	}
	if a.Usage("missing").Total() != 0 {
		t.Fatal("unknown entity must be zero")
	}
	total := a.TotalFor("vm/")
	if total.Of(Guest) != 5*time.Second {
		t.Fatalf("TotalFor(vm/) guest = %v, want 5s", total.Of(Guest))
	}
	ents := a.Entities()
	want := []string{"app/nginx", "host", "vm/db", "vm/web"}
	if len(ents) != len(want) {
		t.Fatalf("Entities = %v", ents)
	}
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("Entities = %v, want %v", ents, want)
		}
	}
}

func TestAccountantReset(t *testing.T) {
	a := New()
	a.Record("host", Usr, time.Second)
	a.Reset()
	if a.Usage("host").Total() != 0 || len(a.Entities()) != 0 {
		t.Fatal("Reset did not clear usage")
	}
}

func TestCategoryStrings(t *testing.T) {
	cases := map[Category]string{Usr: "usr", Sys: "sys", Soft: "soft", Guest: "guest"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
	if Category(42).String() != "Category(42)" {
		t.Error("unknown category string wrong")
	}
	if len(Categories()) != 4 {
		t.Error("Categories() must list 4 entries")
	}
}

// Property: Plus then Sub returns the original usage (when the subtrahend
// is the added value), and Total equals the sum of categories.
func TestUsageAlgebraProperty(t *testing.T) {
	prop := func(au, as, ao, ag, bu, bs, bo, bg uint32) bool {
		var a, b Usage
		a.Add(Usr, time.Duration(au))
		a.Add(Sys, time.Duration(as))
		a.Add(Soft, time.Duration(ao))
		a.Add(Guest, time.Duration(ag))
		b.Add(Usr, time.Duration(bu))
		b.Add(Sys, time.Duration(bs))
		b.Add(Soft, time.Duration(bo))
		b.Add(Guest, time.Duration(bg))
		sum := a.Plus(b)
		if sum.Sub(b) != a {
			return false
		}
		var catSum time.Duration
		for _, c := range Categories() {
			catSum += sum.Of(c)
		}
		return catSum == sum.Total()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBillerMatchesRecord: billing through resolved-once Billers leaves
// the accountant exactly as the equivalent Record calls do, including
// across a Reset in the middle of the stream of charges.
func TestBillerMatchesRecord(t *testing.T) {
	type lane struct{ entity, guestOf string }
	lanes := []lane{{"host", ""}, {"app/web", "vm/web"}, {"app/db", "vm/db"}, {"vm/web", ""}, {"idle", "vm/idle"}}
	viaBiller, viaRecord := New(), New()
	billers := make([]*Biller, len(lanes))
	for i, l := range lanes {
		billers[i] = NewBiller(viaBiller, l.entity, l.guestOf)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := rng.Intn(len(lanes) - 1) // the last lane never bills
		c := Category(rng.Intn(int(numCategories)+1) - 1)
		d := time.Duration(rng.Intn(100)-10) * time.Microsecond
		billers[k].Bill(c, d)
		if billable(c, d) {
			viaRecord.Record(lanes[k].entity, c, d)
			if lanes[k].guestOf != "" {
				viaRecord.Record(lanes[k].guestOf, Guest, d)
			}
		}
		if i == 2500 {
			viaBiller.Reset()
			viaRecord.Reset()
		}
	}
	got, want := viaBiller.Entities(), viaRecord.Entities()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Entities = %v, Record gives %v", got, want)
	}
	for _, e := range want {
		if viaBiller.Usage(e) != viaRecord.Usage(e) {
			t.Errorf("%s: biller usage %v, Record usage %v", e, viaBiller.Usage(e), viaRecord.Usage(e))
		}
	}
	for _, e := range []string{"idle", "vm/idle"} {
		for _, got := range got {
			if got == e {
				t.Errorf("lane that never billed created entity %q", e)
			}
		}
	}
}

// TestBillerReResolvesAfterReset: a biller resolved before Reset bills
// into the new accounting period, not into the discarded one.
func TestBillerReResolvesAfterReset(t *testing.T) {
	a := New()
	b := NewBiller(a, "app/x", "vm/x")
	b.Bill(Usr, time.Second)
	a.Reset()
	b.Bill(Sys, 2*time.Second)
	if got := a.Usage("app/x"); got.Of(Usr) != 0 || got.Of(Sys) != 2*time.Second {
		t.Fatalf("app/x after Reset = %v, want only sys=2s", got)
	}
	if got := a.Usage("vm/x").Of(Guest); got != 2*time.Second {
		t.Fatalf("vm/x guest after Reset = %v, want 2s", got)
	}
	a.Reset()
	if len(a.Entities()) != 0 {
		t.Fatalf("Entities after Reset = %v, want none", a.Entities())
	}
}

// TestZeroChargesCreateNoEntity: charges that record nothing — zero or
// negative durations, unknown categories — leave Entities empty, through
// Record and through a Biller alike.
func TestZeroChargesCreateNoEntity(t *testing.T) {
	a := New()
	a.Record("host", Usr, 0)
	a.Record("host", Sys, -time.Second)
	a.Record("host", Category(99), time.Second)
	b := NewBiller(a, "app/x", "vm/x")
	b.Bill(Usr, 0)
	b.Bill(Soft, -time.Millisecond)
	b.Bill(Category(-1), time.Second)
	if ents := a.Entities(); len(ents) != 0 {
		t.Fatalf("Entities = %v after charges that record nothing, want none", ents)
	}
}
