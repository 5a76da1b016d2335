package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"nestless/internal/report"
)

// goldenDigests pins the exact contents of the quick-mode (seed 42)
// packet-path figures: Figs. 2, 4 and 10 (throughput and latency) and the
// cpuacct breakdown tables of Figs. 6 and 14. The ordering tests above
// only check who beats whom, and TestFiguresDeterministic only compares a
// run with itself, so a datapath refactor that shifts any simulated
// number would pass them. These digests were taken before the O(1)
// station/billing/stream rewrite and must not move: a change here means
// the simulation's events, their order or its RNG draws changed.
var goldenDigests = map[string]string{
	"fig2":       "ac0e7588617358401aef8f5865c95b7b34a3380be5b65560828037dcf77ac643",
	"fig4.tput":  "ae716608f13221c30012342fd5e60acf69b5ab8a7c4804191cbe8655b75f7065",
	"fig4.lat":   "8c6d7c3cc7b3d15f47e3adb3e59839039a305747548a90f73cd78a40c996721c",
	"fig10.tput": "a870b2b1d2222fd4540a3e94a52c4000892cb08f59fb1343ab56f397b00752c5",
	"fig10.lat":  "3a08f9c581279faf668a8dec98735a0661bbed05f5a76d00076d0bee676762fe",
	"fig6":       "200e4af29504586b984a155a02f7f1fe3d78b0353191e791ce2bfca0cd2a69ba",
	"fig14":      "d4997ed7fe015477c7305a0e1978b1a69884e83b638d97b7c35655bdc61d67c3",
}

// tableDigest hashes a table's title, header and rows with unambiguous
// separators, independent of the text renderer's padding.
func tableDigest(t *report.Table) string {
	h := sha256.New()
	h.Write([]byte(t.Title))
	h.Write([]byte{0})
	h.Write([]byte(strings.Join(t.Header, "\x1f")))
	for _, r := range t.Rows {
		h.Write([]byte{0x1e})
		h.Write([]byte(strings.Join(r, "\x1f")))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPacketFiguresGolden(t *testing.T) {
	tables := map[string]*report.Table{
		"fig2":  Fig2(quick),
		"fig6":  Fig6(quick),
		"fig14": Fig14(quick),
	}
	tables["fig4.tput"], tables["fig4.lat"] = Fig4(quick)
	tables["fig10.tput"], tables["fig10.lat"] = Fig10(quick)
	for name, tab := range tables {
		if got, want := tableDigest(tab), goldenDigests[name]; got != want {
			t.Errorf("%s digest = %s, want %s\n%s", name, got, want, tab)
		}
	}
}
