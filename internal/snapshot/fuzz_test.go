package snapshot

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nestless/internal/cluster"
	"nestless/internal/sim"
)

// fuzzSeedSnapshot builds a small real captured world for the seed
// corpus: churn, Hostlo (so the packing cache and dirty set are
// populated), faults (so the injector state rides along).
func fuzzSeedSnapshot(tb testing.TB) []byte {
	cfg := cluster.Config{
		Seed:      3,
		Pods:      churnPods(3, 4),
		Policy:    cluster.Hostlo,
		Horizon:   time.Hour,
		BootDelay: 0,
		Faults:    mustSpec(tb, "node/*:crash:p=0.05;node/provision:fail:p=0.1"),
	}
	c := cluster.New(cfg)
	c.Arm()
	c.Advance(sim.Time(30 * time.Minute))
	snap, err := c.Capture()
	if err != nil {
		tb.Fatalf("Capture: %v", err)
	}
	enc, err := Encode(snap)
	if err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return enc
}

// FuzzSnapshotRoundTrip feeds the decoder arbitrary bytes. The contract
// under fuzzing: Decode never panics and never over-allocates;
// anything it accepts re-encodes canonically (Encode∘Decode is a
// fixpoint after one round); and cluster.Restore on an accepted
// snapshot either errors cleanly or builds a world — hostile bytes can
// produce a garbage world, but never a crash — and a second Restore of
// the same snapshot gives the same verdict.
func FuzzSnapshotRoundTrip(f *testing.F) {
	valid := fuzzSeedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:5])            // magic + version only
	f.Add([]byte{})
	f.Add([]byte("NLW1"))
	f.Add([]byte("NLW9\x01"))
	skew := append([]byte(nil), valid...)
	skew[4] = 99 // version byte
	f.Add(skew)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), valid...), 0xff)) // trailing byte

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return // rejected cleanly — the common case
		}
		enc1, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode rejected a snapshot Decode accepted: %v", err)
		}
		s2, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode rejected its own re-encoding: %v", err)
		}
		enc2, err := Encode(s2)
		if err != nil {
			t.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("Encode∘Decode is not a fixpoint (%d vs %d bytes)", len(enc1), len(enc2))
		}
		// Restore must not panic on whatever survived decoding. (The
		// world is not advanced: a hostile snapshot may carry absurd
		// step budgets; Restore itself must still be total.) Large RNG
		// positions are skipped for throughput — restoring one replays
		// the stream, which is legitimate O(draws) work, not a hang.
		const maxFuzzDraws = 1 << 20
		if s.Eng.Rand.Draws > maxFuzzDraws || (s.Inj != nil && s.Inj.Rand.Draws > maxFuzzDraws) {
			return
		}
		// The second Restore reuses the first one's memoized verdict and
		// derived state: it must agree with the first exactly.
		c1, err1 := cluster.Restore(s, cluster.RestoreOpts{})
		c2, err2 := cluster.Restore(s, cluster.RestoreOpts{})
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("first Restore: %v; second Restore: %v", err1, err2)
		}
		if err1 == nil && c1.Now() != c2.Now() {
			t.Fatalf("two restores of one snapshot differ")
		}
	})
}

// TestDecodeRejectsGarbage pins the codec's failure modes outside the
// fuzzer, so a fuzz-shy environment still checks them.
func TestDecodeRejectsGarbage(t *testing.T) {
	valid := fuzzSeedSnapshot(t)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  []byte("XXXX\x01rest"),
		"version 99": append([]byte("NLW1"), 99),
		"truncated":  valid[:len(valid)-7],
		"trailing":   append(append([]byte(nil), valid...), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted", name)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// TestDecodeRejectsV4: a stream from the previous format version, which
// still carried the reference-scheduler and repack knobs, is refused by
// the version check before any field is read.
func TestDecodeRejectsV4(t *testing.T) {
	v4 := fuzzSeedSnapshot(t)
	if v4[4] != version {
		t.Fatalf("version byte %d, want %d", v4[4], version)
	}
	v4[4] = 4
	_, err := Decode(v4)
	if err == nil || !strings.Contains(err.Error(), "format version 4, this build reads 5") {
		t.Fatalf("Decode(v4) = %v, want the version error", err)
	}
}
