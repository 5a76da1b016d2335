package snapshot

import (
	"testing"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/trace"
)

// churnPods generates the merged multi-tenant churn workload every test
// world runs: pod IDs are unique across users, so one cluster can hold
// the whole population.
func churnPods(seed int64, users int) []trace.Pod {
	us := trace.Generate(trace.GenConfig{
		Seed:              seed,
		Users:             users,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.2,
		MeanArrivalGap:    2 * time.Minute,
		MeanLifetime:      45 * time.Minute,
	})
	var pods []trace.Pod
	for _, u := range us {
		pods = append(pods, u.Pods...)
	}
	return pods
}

// mustSpec parses a fault spec or fails the test.
func mustSpec(t testing.TB, spec string) *faults.Schedule {
	t.Helper()
	s, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return s
}

// worldSpec is one leg of the equivalence matrix.
type worldSpec struct {
	name string
	cfg  cluster.Config
}

// equivalenceSpecs builds the matrix: both policies, churn, faults
// (provisioning failures and node kills mid-run), and the cloud model's
// spot-revocation and zone-drill chaos (whose zone/spot node state and
// od-fallback credit ride the snapshot).
func equivalenceSpecs(t testing.TB) []worldSpec {
	const horizon = 4 * time.Hour
	base := func(seed int64) cluster.Config {
		return cluster.Config{
			Seed:      seed,
			Pods:      churnPods(seed, 25),
			Horizon:   horizon,
			BootDelay: 30 * time.Second,
		}
	}
	kube := base(11)
	hostlo := base(12)
	hostlo.Policy = cluster.Hostlo
	kubeFaults := base(13)
	kubeFaults.Faults = mustSpec(t, "node/*:crash:p=0.02;node/provision:fail:p=0.1")
	hostloFaults := base(14)
	hostloFaults.Policy = cluster.Hostlo
	hostloFaults.Faults = mustSpec(t, "node/*:crash:p=0.03;node/provision:delay:p=0.2:d=30s")
	gcp, err := cloud.Resolve(cloud.Options{
		Spec:     "gcp:n2",
		Zones:    3,
		ZonesSet: true,
		SpotFrac: 0.6, SpotFracSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	applyCloud := func(cfg *cluster.Config, spotFrac float64) {
		cfg.Catalog = gcp.Catalog.Types
		cfg.Zones = gcp.Zones
		cfg.ZoneNames = gcp.ZoneNames
		cfg.SpotFrac = spotFrac
		cfg.SpotDiscount = gcp.SpotDiscount
	}
	spotChaos := base(16)
	spotChaos.Policy = cluster.Hostlo
	spotChaos.Faults = mustSpec(t, "spot/*:crash:p=0.05;node/provision:fail:p=0.1")
	applyCloud(&spotChaos, 0.6)
	zoneDrill := base(17)
	zoneDrill.Faults = mustSpec(t, "zone/us-central1-b:crash:p=0.3;node/*:crash:p=0.01")
	applyCloud(&zoneDrill, 0)
	return []worldSpec{
		{"kube", kube},
		{"hostlo", hostlo},
		{"kube-faults", kubeFaults},
		{"hostlo-faults", hostloFaults},
		{"hostlo-spot-chaos", spotChaos},
		{"kube-zone-drill", zoneDrill},
	}
}
