package snapshot

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/golden"
)

// goldenReplyFile pins the full reply of every golden branch query, one
// "<case> <reply JSON>" line each, plus one "<world> base <digest>" line
// per base world. The file was recorded before the restore path was
// rewritten; any change to a branch's outcome, its warm-cache counters
// included, shows up as a changed line.
const goldenReplyFile = "testdata/branch_replies.golden"

// goldenWorld is one base world of the golden reply set and the queries
// asked of it.
type goldenWorld struct {
	name    string
	cfg     BaseConfig
	queries []Query
}

// goldenWorlds builds the benchmark-shaped what-if worlds (Hostlo under
// node crashes, arrivals spread over the horizon, snapshot in steady
// state) at two seeds with the four benchmark query kinds, plus a
// two-zone spot world for the zone-loss and spot-revocation branches.
func goldenWorlds(t testing.TB) []goldenWorld {
	shape := func(seed int64) BaseConfig {
		return BaseConfig{
			Seed:           seed,
			Users:          60,
			MeanArrivalGap: 40 * time.Minute,
			MeanLifetime:   45 * time.Minute,
			Policy:         cluster.Hostlo,
			Horizon:        8 * time.Hour,
			SnapAt:         5 * time.Hour,
			BootDelay:      45 * time.Second,
			FaultSpec:      "node/*:crash:p=0.01:n=3",
		}
	}
	benchQueries := []Query{
		{Kind: "baseline"},
		{Kind: "add-pods", Pods: 300, PodSeed: 11},
		{Kind: "switch-policy", Policy: "kubernetes"},
		{Kind: "kill-nodes", KillCount: 1},
	}
	spotCloud, err := cloud.Resolve(cloud.Options{
		Spec:  "gcp:n2",
		Zones: 2, ZonesSet: true,
		SpotFrac: 0.5, SpotFracSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spot := shape(7)
	spot.Cloud = spotCloud
	return []goldenWorld{
		{"seed21", shape(21), benchQueries},
		{"seed22", shape(22), benchQueries},
		{"spot2z", spot, []Query{
			{Kind: "baseline"},
			{Kind: "kill-zone", Zone: spotCloud.ZoneNames[1]},
			{Kind: "revoke-spot", RevokeCount: 1},
		}},
	}
}

// goldenReplyLines answers every golden query and renders the pinned
// lines: full reply JSON with the wall-clock field zeroed.
func goldenReplyLines(t testing.TB) []string {
	var lines []string
	for _, w := range goldenWorlds(t) {
		svc, err := NewService(w.cfg)
		if err != nil {
			t.Fatalf("%s: NewService: %v", w.name, err)
		}
		lines = append(lines, fmt.Sprintf("%s base %016x", w.name, svc.BaseDigest()))
		for _, q := range w.queries {
			rep, err := svc.Run(q)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, q.Kind, err)
			}
			rep.ElapsedMS = 0
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%s/%s %s", w.name, q.Kind, b))
		}
	}
	return lines
}

// TestGoldenBranchReplies: every branch reply, and every base world's
// digest, is byte-identical to the recorded one.
func TestGoldenBranchReplies(t *testing.T) {
	golden.Check(t, goldenReplyFile, goldenReplyLines(t))
}
