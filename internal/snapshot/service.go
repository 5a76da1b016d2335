package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nestless/internal/cloud"
	"nestless/internal/cluster"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/trace"
)

// The what-if service: ROADMAP item 3's long-running branch-query
// server. One base world is simulated to a snapshot instant and frozen;
// every query restores an independent branch from the shared snapshot,
// applies its delta (extra pods, a policy switch, a node massacre),
// continues to the horizon, and reports the branch outcome next to the
// uninterrupted baseline. Branches share the snapshot copy-on-write —
// including the packing cache, whose warm entries from the base run
// keep paying off inside every branch — so serving a query costs the
// branch continuation, not a from-scratch simulation.

// BaseConfig parameterises the service's base world.
type BaseConfig struct {
	// Seed drives the workload generator and the cluster world.
	Seed int64
	// Users sizes the tenant population; every user's pods are merged
	// into one base world (trace pod IDs are unique across users).
	Users int
	// MeanArrivalGap and MeanLifetime are the churn knobs (defaults 2m
	// and 45m).
	MeanArrivalGap time.Duration
	MeanLifetime   time.Duration
	// Policy is the base placement policy.
	Policy cluster.Policy
	// Horizon ends every branch (default 8h); SnapAt is the snapshot
	// instant (default Horizon/2).
	Horizon time.Duration
	SnapAt  time.Duration
	// BootDelay is the VM provisioning latency (default 45s).
	BootDelay time.Duration
	// FaultSpec arms the base world's fault injector ("" = off). When
	// the cloud configuration runs spot capacity and the spec says
	// nothing about spot/ points, cloud.DefaultRevocationSpec is merged
	// in after it.
	FaultSpec string
	// PackCacheSize bounds the shared packing cache (0 = default).
	PackCacheSize int
	// Cloud is the resolved machine-subsystem configuration (nil = the
	// default: on-demand aws:m5 in one zone, reconciler autoscaler).
	Cloud *cloud.Resolved
}

func (bc BaseConfig) withDefaults() BaseConfig {
	if bc.Users <= 0 {
		bc.Users = 40
	}
	if bc.MeanArrivalGap <= 0 {
		bc.MeanArrivalGap = 2 * time.Minute
	}
	if bc.MeanLifetime <= 0 {
		bc.MeanLifetime = 45 * time.Minute
	}
	if bc.Horizon <= 0 {
		bc.Horizon = 8 * time.Hour
	}
	if bc.SnapAt <= 0 || bc.SnapAt > bc.Horizon {
		bc.SnapAt = bc.Horizon / 2
	}
	if bc.BootDelay < 0 {
		bc.BootDelay = 45 * time.Second
	}
	if bc.Cloud == nil {
		cl, err := cloud.Resolve(cloud.Options{})
		if err != nil {
			// The default spec always resolves; a failure means the
			// registry itself is broken.
			panic(err)
		}
		bc.Cloud = cl
	}
	return bc
}

// Query is one what-if request.
type Query struct {
	// Kind selects the branch delta:
	//   "baseline"      — continue the snapshot unchanged;
	//   "add-pods"      — adopt Pods extra pods at the snapshot instant;
	//   "switch-policy" — continue under Policy;
	//   "kill-nodes"    — kill Nodes (or the first KillCount live nodes);
	//   "kill-zone"     — zone-loss drill: kill every live node in Zone;
	//   "revoke-spot"   — revoke the first RevokeCount live spot nodes.
	Kind string `json:"kind"`

	// add-pods: how many, and the seed their sizes/lifetimes derive
	// from (same seed, same pods — queries are reproducible).
	Pods    int   `json:"pods,omitempty"`
	PodSeed int64 `json:"pod_seed,omitempty"`

	// switch-policy: "kubernetes" or "hostlo".
	Policy string `json:"policy,omitempty"`

	// kill-nodes: explicit node names, or the first KillCount live
	// nodes (creation order) when Nodes is empty.
	Nodes     []string `json:"nodes,omitempty"`
	KillCount int      `json:"kill_count,omitempty"`

	// kill-zone: the configured zone name to drill (e.g. "us-east-1a").
	Zone string `json:"zone,omitempty"`

	// revoke-spot: how many live spot nodes to revoke (creation order;
	// requires a base world running spot capacity).
	RevokeCount int `json:"revoke_count,omitempty"`
}

// Reply is a branch outcome. Identical queries produce identical
// replies, wall-clock fields aside: the branch is a deterministic
// continuation of the shared snapshot.
type Reply struct {
	Kind    string        `json:"kind"`
	SnapAt  time.Duration `json:"snap_at"`
	Horizon time.Duration `json:"horizon"`

	// Digest fingerprints the branch's final world state; the baseline
	// branch reproduces the uninterrupted base run's digest exactly.
	Digest string `json:"digest"`

	Arrived      int     `json:"arrived"`
	Adopted      int     `json:"adopted,omitempty"`
	Departed     int     `json:"departed"`
	Running      int     `json:"running"`
	StillPending int     `json:"still_pending"`
	Failed       int     `json:"failed"`
	Kills        int     `json:"kills,omitempty"`
	Displaced    int     `json:"displaced,omitempty"`
	PeakNodes    int     `json:"peak_nodes"`
	FinalNodes   int     `json:"final_nodes"`
	CostDollars  float64 `json:"cost_dollars"`

	// Cloud-model outcomes: the spot/on-demand halves of CostDollars's
	// accrual, revocation and drill counts, and the per-zone live-node
	// spread at the horizon (omitted for single-zone worlds).
	CostSpotDollars     float64 `json:"cost_spot_dollars,omitempty"`
	CostOnDemandDollars float64 `json:"cost_on_demand_dollars,omitempty"`
	SpotRevocations     int     `json:"spot_revocations,omitempty"`
	ZoneKills           int     `json:"zone_kills,omitempty"`
	ZoneSpread          []int   `json:"zone_spread,omitempty"`

	// WarmCacheHits counts packing-cache hits scored inside this branch
	// — the copy-on-write payoff of sharing the base run's warm cache.
	WarmCacheHits   int `json:"warm_cache_hits"`
	WarmCacheMisses int `json:"warm_cache_misses"`

	// Leaks lists conservation-audit violations (always empty unless
	// the engine itself is broken; surfaced so a violation cannot hide).
	Leaks []string `json:"leaks,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`
}

// Stats is the service counter snapshot.
type Stats struct {
	BaseUsers   int               `json:"base_users"`
	BasePods    int               `json:"base_pods"`
	Policy      string            `json:"policy"`
	SnapAt      time.Duration     `json:"snap_at"`
	Horizon     time.Duration     `json:"horizon"`
	SnapshotB   int               `json:"snapshot_bytes"`
	BaseDigest  string            `json:"base_digest"`
	Queries     uint64            `json:"queries"`
	Errors      uint64            `json:"errors"`
	PerKind     map[string]uint64 `json:"per_kind"`
	WarmHits    uint64            `json:"warm_cache_hits"`
	WarmMisses  uint64            `json:"warm_cache_misses"`
	WarmHitRate float64           `json:"warm_cache_hit_rate"`
}

// Service owns one frozen base snapshot and serves branch queries
// against it. All methods are safe for concurrent use: the snapshot is
// never mutated after construction, and every query restores its own
// world.
type Service struct {
	cfg     BaseConfig
	snap    *cluster.Snapshot
	encoded int // Encode(snap) size, a codec self-check at construction

	baseRes    cluster.Result // the uninterrupted run, snapshot → horizon
	baseDigest uint64
	basePods   int

	mu         sync.Mutex
	queries    uint64
	errors     uint64
	perKind    map[string]uint64
	warmHits   uint64
	warmMisses uint64
}

// NewService simulates the base world to the snapshot instant, freezes
// it, and continues the original world to the horizon for the
// uninterrupted baseline every branch is compared against.
func NewService(bc BaseConfig) (*Service, error) {
	bc = bc.withDefaults()
	var sched *faults.Schedule
	if bc.FaultSpec != "" {
		var err error
		sched, err = faults.ParseSpec(bc.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("whatif: fault spec: %w", err)
		}
	}
	if bc.Cloud.SpotFrac > 0 && !sched.HasPointPrefix("spot/") {
		def, err := faults.ParseSpec(cloud.DefaultRevocationSpec)
		if err != nil {
			return nil, fmt.Errorf("whatif: default revocation spec: %w", err)
		}
		sched = faults.Merge(sched, def)
	}
	users := trace.Generate(trace.GenConfig{
		Seed:              bc.Seed,
		Users:             bc.Users,
		MeanPodsPerUser:   6,
		HeavyUserFraction: 0.2,
		MeanArrivalGap:    bc.MeanArrivalGap,
		MeanLifetime:      bc.MeanLifetime,
	})
	var pods []trace.Pod
	for _, u := range users {
		pods = append(pods, u.Pods...)
	}
	mode := cluster.Reconciler
	if bc.Cloud.Imperative {
		mode = cluster.Imperative
	}
	c := cluster.New(cluster.Config{
		Seed:          bc.Seed,
		Pods:          pods,
		Catalog:       bc.Cloud.Catalog.Types,
		Policy:        bc.Policy,
		Horizon:       bc.Horizon,
		BootDelay:     bc.BootDelay,
		Faults:        sched,
		PackCacheSize: bc.PackCacheSize,
		Zones:         bc.Cloud.Zones,
		ZoneNames:     bc.Cloud.ZoneNames,
		SpotFrac:      bc.Cloud.SpotFrac,
		SpotDiscount:  bc.Cloud.SpotDiscount,
		Autoscaler:    mode,
	})
	c.Arm()
	c.Advance(sim.Time(bc.SnapAt))
	snap, err := c.Capture()
	if err != nil {
		return nil, fmt.Errorf("whatif: capture base world: %w", err)
	}
	enc, err := Encode(snap)
	if err != nil {
		return nil, fmt.Errorf("whatif: encode base snapshot: %w", err)
	}
	// The parent world keeps going: its uninterrupted finish is the
	// baseline digest a "baseline" branch must reproduce byte for byte.
	c.Advance(sim.Time(bc.Horizon))
	baseRes := c.Finish()
	if leaks := c.Leaks(); len(leaks) > 0 {
		return nil, fmt.Errorf("whatif: base world leaks: %s", leaks[0])
	}
	return &Service{
		cfg:        bc,
		snap:       snap,
		encoded:    len(enc),
		baseRes:    baseRes,
		baseDigest: c.Digest(),
		basePods:   len(pods),
		perKind:    map[string]uint64{},
	}, nil
}

// Snapshot exposes the frozen base snapshot (read-only by contract).
func (s *Service) Snapshot() *cluster.Snapshot { return s.snap }

// BaseResult returns the uninterrupted base run's outcome.
func (s *Service) BaseResult() cluster.Result { return s.baseRes }

// BaseDigest returns the uninterrupted base run's final digest.
func (s *Service) BaseDigest() uint64 { return s.baseDigest }

// Run answers one what-if query: restore a branch, apply the delta,
// continue to the horizon, audit, report.
func (s *Service) Run(q Query) (*Reply, error) {
	start := time.Now()
	opts := cluster.RestoreOpts{}
	switch q.Kind {
	case "baseline", "add-pods", "kill-nodes", "kill-zone", "revoke-spot":
	case "switch-policy":
		var p cluster.Policy
		switch q.Policy {
		case "kubernetes":
			p = cluster.Kubernetes
		case "hostlo":
			p = cluster.Hostlo
		default:
			return nil, fmt.Errorf("whatif: unknown policy %q", q.Policy)
		}
		opts.Policy = &p
	default:
		return nil, fmt.Errorf("whatif: unknown query kind %q", q.Kind)
	}
	c, err := cluster.Restore(s.snap, opts)
	if err != nil {
		return nil, fmt.Errorf("whatif: restore branch: %w", err)
	}
	switch q.Kind {
	case "add-pods":
		if q.Pods <= 0 || q.Pods > 1<<20 {
			return nil, fmt.Errorf("whatif: add-pods wants 1..%d pods, got %d", 1<<20, q.Pods)
		}
		if err := c.AdoptPods(synthPods(q.Pods, q.PodSeed, s.cfg)); err != nil {
			return nil, err
		}
	case "kill-nodes":
		names := q.Nodes
		if len(names) == 0 {
			live := c.LiveNodeNames()
			if q.KillCount <= 0 || q.KillCount > len(live) {
				return nil, fmt.Errorf("whatif: kill-nodes wants 1..%d nodes, got %d", len(live), q.KillCount)
			}
			names = live[:q.KillCount]
		}
		if err := c.KillNodesNow(names); err != nil {
			return nil, err
		}
	case "kill-zone":
		if q.Zone == "" {
			return nil, fmt.Errorf("whatif: kill-zone wants a zone name")
		}
		if _, err := c.KillZoneNow(q.Zone); err != nil {
			return nil, err
		}
	case "revoke-spot":
		n, err := c.RevokeSpotNow(q.RevokeCount)
		if err != nil {
			return nil, err
		}
		if n < q.RevokeCount {
			return nil, fmt.Errorf("whatif: revoke-spot wanted %d spot nodes, only %d live (is the base world running -spot-frac?)", q.RevokeCount, n)
		}
	}
	c.Advance(sim.Time(s.cfg.Horizon))
	res := c.Finish()
	leaks := c.Leaks()
	rep := &Reply{
		Kind:                q.Kind,
		SnapAt:              s.cfg.SnapAt,
		Horizon:             s.cfg.Horizon,
		Digest:              fmt.Sprintf("%016x", c.Digest()),
		Arrived:             res.Arrived,
		Adopted:             res.Adopted,
		Departed:            res.Departed,
		Running:             res.Running,
		StillPending:        res.StillPending,
		Failed:              res.Failed,
		Kills:               res.Kills,
		Displaced:           res.Displaced,
		PeakNodes:           res.PeakNodes,
		FinalNodes:          res.FinalNodes,
		CostDollars:         res.CostDollars,
		CostSpotDollars:     res.CostSpotDollars,
		CostOnDemandDollars: res.CostOnDemandDollars,
		SpotRevocations:     res.SpotRevocations,
		ZoneKills:           res.ZoneKills,
		ZoneSpread:          res.ZoneSpread,
		WarmCacheHits:       res.OptimizerCacheHits - s.snap.Res.OptimizerCacheHits,
		WarmCacheMisses:     res.OptimizerCacheMisses - s.snap.Res.OptimizerCacheMisses,
		Leaks:               leaks,
		ElapsedMS:           float64(time.Since(start).Microseconds()) / 1e3,
	}
	s.mu.Lock()
	s.queries++
	s.perKind[q.Kind]++
	s.warmHits += uint64(rep.WarmCacheHits)
	s.warmMisses += uint64(rep.WarmCacheMisses)
	s.mu.Unlock()
	return rep, nil
}

// synthPods derives q.Pods single-container pods from seed — uniform
// sizes within the mid range of the catalog's smallest machine, mean-
// lifetime exponential churn, arrival at the snapshot instant. Pure
// function of (n, seed, cfg): re-asking the same question adopts the
// same pods.
func synthPods(n int, seed int64, bc BaseConfig) []trace.Pod {
	rng := sim.NewRand(seed)
	pods := make([]trace.Pod, n)
	for i := range pods {
		pods[i] = trace.Pod{
			ID: fmt.Sprintf("whatif-%d-%d", seed, i),
			Containers: []trace.Container{{
				CPU: rng.Uniform(0.02, 0.25),
				Mem: rng.Uniform(0.02, 0.25),
			}},
			Arrival:  bc.SnapAt,
			Lifetime: time.Duration(rng.Exp(float64(bc.MeanLifetime))),
		}
	}
	return pods
}

// Stats reports the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		BaseUsers:  s.cfg.Users,
		BasePods:   s.basePods,
		Policy:     s.cfg.Policy.String(),
		SnapAt:     s.cfg.SnapAt,
		Horizon:    s.cfg.Horizon,
		SnapshotB:  s.encoded,
		BaseDigest: fmt.Sprintf("%016x", s.baseDigest),
		Queries:    s.queries,
		Errors:     s.errors,
		PerKind:    map[string]uint64{},
		WarmHits:   s.warmHits,
		WarmMisses: s.warmMisses,
	}
	for k, v := range s.perKind {
		st.PerKind[k] = v
	}
	if t := s.warmHits + s.warmMisses; t > 0 {
		st.WarmHitRate = float64(s.warmHits) / float64(t)
	}
	return st
}

// maxQueryBytes bounds a POST /whatif body. A query is a few hundred
// bytes of JSON; even an explicit kill list of thousands of node names
// stays far below it.
const maxQueryBytes = 1 << 20

// Handler returns the HTTP face: POST /whatif answers queries (a body
// over maxQueryBytes gets 413), GET /stats reports counters, GET /base
// reports the uninterrupted run.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/whatif", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST a query")
			return
		}
		var q Query
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			s.countErr()
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpErr(w, code, err.Error())
			return
		}
		rep, err := s.Run(q)
		if err != nil {
			s.countErr()
			httpErr(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/base", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Digest string         `json:"digest"`
			Result cluster.Result `json:"result"`
		}{fmt.Sprintf("%016x", s.baseDigest), s.baseRes})
	})
	return mux
}

func (s *Service) countErr() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

func httpErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// KindNames lists the query kinds the service answers, for usage text.
func KindNames() []string {
	return []string{"add-pods", "baseline", "kill-nodes", "kill-zone", "revoke-spot", "switch-policy"}
}
