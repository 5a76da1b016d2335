// Command whatif is the resident what-if query service: it simulates
// one base cluster world to a snapshot instant, freezes it, and answers
// branch queries over HTTP — each query restores an independent branch
// from the shared copy-on-write snapshot, applies its delta, and runs
// to the horizon.
//
//	whatif -users 200 -policy hostlo -snap-at 4h &
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"baseline"}'
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"add-pods","pods":10000,"pod_seed":7}'
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"switch-policy","policy":"hostlo"}'
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"kill-nodes","kill_count":25}'
//	curl -s localhost:8080/stats
//
// The -cloud/-zones/-spot-frac flags give the base world a machine
// configuration (see internal/cloud), which unlocks the zone-loss and
// spot-revocation branch queries:
//
//	whatif -users 200 -cloud gcp:n2 -zones 3 -spot-frac 0.5 &
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"kill-zone","zone":"us-central1-b"}'
//	curl -s -X POST localhost:8080/whatif -d '{"kind":"revoke-spot","revoke_count":10}'
//
// Identical queries return identical replies (wall-clock fields aside):
// every branch is a deterministic continuation of the same frozen
// world, and the "baseline" branch reproduces the uninterrupted base
// run's digest byte for byte.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"nestless/internal/cli"
	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/snapshot"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	users := flag.Int("users", 100, "tenant population of the base world")
	seed := flag.Int64("seed", 1, "workload and world seed")
	gap := flag.Duration("gap", 2*time.Minute, "mean pod arrival gap per user")
	life := flag.Duration("life", 45*time.Minute, "mean pod lifetime")
	policy := flag.String("policy", "kubernetes", "base placement policy: kubernetes|hostlo")
	horizon := flag.Duration("horizon", 8*time.Hour, "branch end time")
	snapAt := flag.Duration("snap-at", 0, "snapshot instant (default horizon/2)")
	boot := flag.Duration("boot", 45*time.Second, "VM provisioning delay")
	faultSpec := flag.String("faults", "", "base-world fault spec (see internal/faults)")
	cacheSize := flag.Int("repack-cache", 0, "packing cache entries (0 = default, <0 = off)")
	cloudSpec := flag.String("cloud", cloud.DefaultName,
		"machine catalog selector: provider:family[:zone=N][:spot=F] (registered: "+strings.Join(cloud.Names(), ", ")+")")
	spotFrac := flag.Float64("spot-frac", 0, "fraction of the base fleet on spot capacity, in [0,1]")
	zones := flag.Int("zones", 1, "availability zones the base fleet spreads across")
	autoscaler := flag.String("autoscaler", "reconciler", "fleet manager: reconciler or imperative (the pre-cloud pin)")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cl, err := cloud.Resolve(cloud.Options{
		Spec:     *cloudSpec,
		SpotFrac: *spotFrac, SpotFracSet: explicit["spot-frac"],
		Zones: *zones, ZonesSet: explicit["zones"],
		Autoscaler: *autoscaler,
	})
	if err != nil {
		cli.BadFlag("whatif: %v", err)
	}

	var pol cluster.Policy
	switch *policy {
	case "kubernetes":
		pol = cluster.Kubernetes
	case "hostlo":
		pol = cluster.Hostlo
	default:
		cli.BadFlag("whatif: -policy %q (want kubernetes|hostlo)", *policy)
	}

	fmt.Fprintf(os.Stderr, "whatif: simulating base world (%d users, %s, horizon %v)...\n",
		*users, *policy, *horizon)
	start := time.Now()
	svc, err := snapshot.NewService(snapshot.BaseConfig{
		Seed:           *seed,
		Users:          *users,
		MeanArrivalGap: *gap,
		MeanLifetime:   *life,
		Policy:         pol,
		Horizon:        *horizon,
		SnapAt:         *snapAt,
		BootDelay:      *boot,
		FaultSpec:      *faultSpec,
		PackCacheSize:  *cacheSize,
		Cloud:          cl,
	})
	if err != nil {
		cli.Fatal("whatif", err)
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr,
		"whatif: base ready in %v — %d pods, snapshot at %v (%d bytes), base digest %s\n",
		time.Since(start).Round(time.Millisecond), st.BasePods, st.SnapAt, st.SnapshotB, st.BaseDigest)
	fmt.Fprintf(os.Stderr, "whatif: serving %s on http://%s (kinds: %s)\n",
		"/whatif /stats /base", *addr, strings.Join(snapshot.KindNames(), " "))
	// The timeouts bound how long a client may hold a connection without
	// sending a query; a query itself runs as long as its branch does.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if err := srv.ListenAndServe(); err != nil {
		cli.Fatal("whatif", err)
	}
}
