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
// SIGINT or SIGTERM stops the server gracefully: it stops accepting
// connections, lets in-flight queries finish (for at most 30 s) and
// exits 0.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
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
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Fatal("whatif", err)
	}
	fmt.Fprintf(os.Stderr, "whatif: serving %s on http://%s (kinds: %s)\n",
		"/whatif /stats /base", *addr, strings.Join(snapshot.KindNames(), " "))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, ln, svc.Handler(), shutdownDrain); err != nil {
		cli.Fatal("whatif", err)
	}
	fmt.Fprintln(os.Stderr, "whatif: stopped")
}

// shutdownDrain bounds how long a stopping server waits for in-flight
// queries to finish.
const shutdownDrain = 30 * time.Second

// serve answers HTTP on ln until ctx is done, then shuts down
// gracefully: it stops accepting connections, closes idle ones and
// waits up to drain for in-flight queries to finish. It returns nil
// after a clean drain, and an error if the server failed or the drain
// ran out of time (the remaining connections are then closed).
func serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	// The timeouts bound how long a client may hold a connection without
	// sending a query; a query itself runs as long as its branch does.
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// ctx is done; the drain gets a deadline of its own.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close() // the drain's failure is the error to report
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
