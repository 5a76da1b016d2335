package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"nestless/internal/cloudsim"
	"nestless/internal/faults"
	"nestless/internal/sim"
	"nestless/internal/telemetry"
	"nestless/internal/trace"
)

// World snapshot/fork: deterministic capture and restore of a running
// cluster, the substrate of the what-if service (internal/snapshot,
// cmd/whatif). The contract is byte-identity: Restore(Capture(w)) and
// the uninterrupted w produce identical digests, Results and telemetry
// for any continuation, because every piece of mutable state round-trips
// exactly —
//
//   - the engine core (clock, event sequence counter, step count) and
//     the RNG streams as (seed, draws) positions (sim.RandState);
//   - the pending event set through the typed ledger (events.go),
//     replayed in ascending original-sequence order so same-instant
//     FIFO ties resolve identically;
//   - pod runtime state verbatim; node used sums by canonical recompute
//     (every mutation path maintains "sum in item order", so the
//     recompute is bit-exact);
//   - the pending queue's raw heap array (pop order is total, but the
//     layout is kept anyway), the blocked-head memo, and the capacity-
//     index version counter (treap shapes are history-independent given
//     the (score, id) keys and splitmix64 priorities, so the index
//     itself rebuilds from the live fleet);
//   - the fault injector's RNG position and rule cursors, the packing
//     cache's entries in recency order, and the accumulated Result and
//     time-to-schedule series with their exact float sums.
//
// Capture deep-copies everything the parent may mutate, so a snapshot
// stays frozen while the parent advances; heavyweight immutables — pod
// definitions (trace.Pod containers), the catalog, the fault schedule,
// packing-cache entry slices — are shared copy-on-write. Restore
// deep-copies the mutables again, so any number of concurrent branches
// can be restored from one snapshot on different goroutines.

// PodSnap is one pod's captured runtime state. Pod (the workload
// definition) is shared with the live world: trace.Pod contents are
// immutable after generation.
type PodSnap struct {
	Pod           trace.Pod
	User          string
	State         int8
	ArrivedAt     sim.Time
	WaitSince     sim.Time
	PlacedAt      sim.Time
	Remaining     time.Duration
	DepartGen     int
	ScheduledOnce bool
	Displaced     bool
	OnNodes       []int32
}

// NodeSnap is one VM's captured state. Used sums, the index key, the
// name and the fault point are all canonical functions of (id, typ,
// items) and are recomputed at restore. Dirty flags are carried by
// Snapshot.DirtyList, which also preserves their discovery order.
type NodeSnap struct {
	Typ       int32
	Zone      int32
	Spot      bool
	Live      bool
	BornAt    sim.Time
	IdleSince sim.Time
	Items     []cloudsim.PlacedItem
}

// QueueSnap is one pending-queue heap entry, array layout preserved.
type QueueSnap struct {
	Key float64
	Seq uint64
	Idx int32
}

// Snapshot is a frozen world: pure data, no closures, no engine. It can
// be restored any number of times (concurrently) and serialized by
// internal/snapshot's codec.
//
// A snapshot is read-only once built. Capture and the codec's Decode
// always return a fresh one; its first Restore validates it and derives
// the state every branch shares, and later Restores reuse both, so an
// edit made after the first Restore would never reach a branch. A
// Snapshot holds a sync.Once and must not be copied by value.
type Snapshot struct {
	// Cfg is the normalized run configuration with the workload and
	// recorder stripped: pods live in Pods (with runtime state), the
	// recorder is supplied at restore. Cfg.Faults is shared (immutable);
	// FaultsSpec is its spec-string form for the codec.
	Cfg        Config
	FaultsSpec string

	Eng sim.EngineState

	Pods []PodSnap

	Nodes     []NodeSnap
	LiveList  []int32 // liveList as node ids, order preserved (incl. dead entries)
	DeadLive  int
	DirtyList []int32 // Hostlo dirty set, append order preserved

	PQ     []QueueSnap // pending heap, raw array
	EnqSeq uint64

	BlockedPod int
	BlockedVer uint64
	IdxVer     uint64
	Inflight   int
	OdFallback int
	Dirty      bool
	Started    bool
	Finalized  bool

	Events []EventSnap // pending typed events, ascending Seq

	Res Result
	// TrajWin is the trajectory downsampler's open partial window
	// (Points == 0 when empty); the window width itself is derived from
	// Cfg at restore.
	TrajWin Sample
	TTS     sim.SeriesState

	Inj  *faults.InjectorState
	Pack *cloudsim.PackCacheState

	// derive guards base, the restore state derived on the first
	// Restore (see restoreBase).
	derive sync.Once
	base   *restoreBase
}

// EventSnap is one pending typed event, the serializable ledger entry.
type EventSnap struct {
	At   sim.Time
	Seq  uint64
	Kind uint8
	A, B int64
}

// Capture freezes the world at the current parked instant. Call it only
// between Advance calls (never from inside an event callback); a
// pending coalesced schedule pass — possible after a same-instant
// mutator like InjectTransfer or KillNodesNow — is rejected: advance
// the engine to its own Now first so the pass drains.
func (c *Cluster) Capture() (*Snapshot, error) {
	if c.schedPend {
		return nil, fmt.Errorf("cluster: capture with a schedule pass pending (Advance(Now) first)")
	}
	if got, want := c.eng.Pending(), len(c.ledger); got != want {
		return nil, fmt.Errorf("cluster: %d pending engine events but %d ledgered (unledgered closure in flight?)", got, want)
	}

	s := &Snapshot{
		Cfg:        c.cfg,
		Eng:        c.eng.State(),
		DeadLive:   c.deadLive,
		EnqSeq:     c.enqSeq,
		BlockedPod: c.blockedPod,
		BlockedVer: c.blockedVer,
		Inflight:   c.inflight,
		OdFallback: c.odFallback,
		Dirty:      c.dirty,
		Started:    c.started,
		Finalized:  c.finalized,
		IdxVer:     c.idx.ver,
		Res:        c.res,
		TrajWin:    c.trajWin,
		TTS:        c.tts.State(),
		Inj:        c.inj.State(),
		Pack:       c.pack.State(),
	}
	s.Cfg.Pods = nil
	s.Cfg.Rec = nil
	if c.cfg.Faults != nil {
		s.FaultsSpec = c.cfg.Faults.String()
	}
	// Deep copies of everything the parent keeps mutating.
	s.Res.Samples = append([]Sample(nil), c.res.Samples...)
	s.Res.FleetTypes = append([]int(nil), c.res.FleetTypes...)
	s.Pods = make([]PodSnap, len(c.pods))
	for i := range c.pods {
		p := &c.pods[i]
		ps := PodSnap{
			Pod:           p.pod,
			User:          p.user,
			State:         int8(p.state),
			ArrivedAt:     p.arrivedAt,
			WaitSince:     p.waitSince,
			PlacedAt:      p.placedAt,
			Remaining:     p.remaining,
			DepartGen:     p.departGen,
			ScheduledOnce: p.scheduledOnce,
			Displaced:     p.displaced,
		}
		if len(p.onNodes) > 0 {
			ps.OnNodes = make([]int32, len(p.onNodes))
			for k, nid := range p.onNodes {
				ps.OnNodes[k] = int32(nid)
			}
		}
		s.Pods[i] = ps
	}
	s.Nodes = make([]NodeSnap, len(c.nodes))
	for i, n := range c.nodes {
		s.Nodes[i] = NodeSnap{
			Typ:       int32(n.typ),
			Zone:      int32(n.zone),
			Spot:      n.spot,
			Live:      n.live,
			BornAt:    n.bornAt,
			IdleSince: n.idleSince,
			Items:     append([]cloudsim.PlacedItem(nil), n.items...),
		}
	}
	s.LiveList = make([]int32, len(c.liveList))
	for i, n := range c.liveList {
		s.LiveList[i] = int32(n.id)
	}
	s.DirtyList = make([]int32, len(c.dirtyList))
	for i, n := range c.dirtyList {
		s.DirtyList[i] = int32(n.id)
	}
	s.PQ = make([]QueueSnap, len(c.pq))
	for i, e := range c.pq {
		s.PQ[i] = QueueSnap{Key: e.key, Seq: e.seq, Idx: int32(e.idx)}
	}
	s.Events = make([]EventSnap, 0, len(c.ledger))
	for _, ev := range c.ledger {
		s.Events = append(s.Events, EventSnap{At: ev.At, Seq: ev.Seq, Kind: uint8(ev.Kind), A: ev.A, B: ev.B})
	}
	sort.Slice(s.Events, func(a, b int) bool { return s.Events[a].Seq < s.Events[b].Seq })
	return s, nil
}

// RestoreOpts parameterises a branch restored from a snapshot. The zero
// value continues the captured world unchanged.
type RestoreOpts struct {
	// Rec attaches a telemetry recorder to the branch. Byte-identical
	// telemetry continuation requires the recorder the captured world
	// was using (Rebind keeps its cursors); nil runs the branch silent.
	Rec *telemetry.Recorder
	// Policy, when non-nil, switches the placement policy for the
	// branch ("what if we switch to Hostlo"). Switching to Hostlo marks
	// the whole live fleet dirty so the first optimize pass may repack
	// everything churn left behind.
	Policy *Policy
	// Faults, when non-nil, replaces the branch's fault schedule ("what
	// if this zone starts dying"). The new injector forks the engine
	// RNG stream at restore, exactly as New does at construction.
	Faults *faults.Schedule
}

// Restore builds a live world from a snapshot. The snapshot is only
// read — never mutated — so concurrent Restores from one snapshot are
// safe. The first Restore validates the snapshot and derives the state
// every branch shares (see restoreBase); each Restore then copies only
// what its branch may mutate and shares the rest (pod definitions,
// catalog, fault schedule, packing-cache entry slices, node names).
// Corrupt snapshots (a hostile decode) return an error, never panic —
// the same error on every Restore.
func Restore(s *Snapshot, o RestoreOpts) (*Cluster, error) {
	base := s.restoreBase()
	if base.err != nil {
		return nil, base.err
	}
	cfg := base.cfg
	cfg.Rec = o.Rec
	switched := false
	if o.Policy != nil && *o.Policy != cfg.Policy {
		cfg.Policy = *o.Policy
		switched = true
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults
	}

	eng := sim.RestoreEngine(s.Eng)
	eng.MaxSteps = cfg.MaxSteps
	var inj *faults.Injector
	if o.Faults != nil {
		// A replaced schedule is a fresh fault world: fork the engine
		// stream exactly as New does at construction.
		inj = faults.New(eng, o.Faults, o.Rec)
	} else {
		var err error
		inj, err = faults.Restore(cfg.Faults, o.Rec, s.Inj)
		if err != nil {
			return nil, err
		}
	}
	if base.packErr != nil {
		return nil, base.packErr
	}

	c := &Cluster{
		cfg: cfg,
		eng: eng,
		inj: inj,
		rec: o.Rec,
		cat: cfg.Catalog,
		idx: newCapIndex(cfg.Catalog),

		enqSeq:     s.EnqSeq,
		blockedPod: s.BlockedPod,
		blockedVer: s.BlockedVer,
		inflight:   s.Inflight,
		odFallback: s.OdFallback,
		dirty:      s.Dirty,
		started:    s.Started,
		finalized:  s.Finalized,
		deadLive:   s.DeadLive,
		pack:       base.pack.Restore(),
		ledger:     make(map[uint64]ledgerEvent, len(base.events)),
		trajStride: base.trajStride,
		trajWin:    s.TrajWin,
	}
	c.fireFn = c.fireBySeq
	c.res = s.Res
	c.res.Policy = cfg.Policy
	c.res.Samples = append([]Sample(nil), s.Res.Samples...)
	c.res.FleetTypes = append([]int(nil), s.Res.FleetTypes...)
	c.tts.SetState(s.TTS)

	// Pods: runtime state verbatim, derived sums recomputed (canonical
	// container-order accumulation, identical to New's); the placement
	// maps share one private arena (unlinkPods edits them in place).
	c.pods = make([]podRun, len(s.Pods))
	c.podBase = base.podIndex
	c.podIndex = make(map[string]int)
	onNodes := make([]int, 0, base.onNodes)
	for i := range s.Pods {
		ps := &s.Pods[i]
		p := &c.pods[i]
		*p = podRun{
			pod:           ps.Pod,
			user:          ps.User,
			cpu:           ps.Pod.TotalCPU(),
			mem:           ps.Pod.TotalMem(),
			state:         podState(ps.State),
			arrivedAt:     ps.ArrivedAt,
			waitSince:     ps.WaitSince,
			placedAt:      ps.PlacedAt,
			remaining:     ps.Remaining,
			departGen:     ps.DepartGen,
			scheduledOnce: ps.ScheduledOnce,
			displaced:     ps.Displaced,
		}
		if len(ps.OnNodes) > 0 {
			start := len(onNodes)
			for _, nid := range ps.OnNodes {
				onNodes = append(onNodes, int(nid))
			}
			p.onNodes = onNodes[start:len(onNodes):len(onNodes)]
		}
	}

	// Nodes: identity and items verbatim in one node arena and one item
	// arena (stripPod edits items in place), used sums by canonical
	// recompute, names and fault points from the derived state. The
	// capacity index rebuilds from the live fleet (treap shape is
	// history-independent, so insertion in id order reproduces the query
	// structure; the version counter restores explicitly).
	c.initZones()
	arena := make([]node, len(s.Nodes))
	c.nodes = make([]*node, len(s.Nodes))
	items := make([]cloudsim.PlacedItem, 0, base.items)
	for i := range s.Nodes {
		ns := &s.Nodes[i]
		n := &arena[i]
		*n = node{
			id:         i,
			name:       base.nodePoints[i][len("node/"):],
			typ:        int(ns.Typ),
			zone:       int(ns.Zone),
			spot:       ns.Spot,
			bornAt:     ns.BornAt,
			idleSince:  ns.IdleSince,
			live:       ns.Live,
			faultPoint: base.nodePoints[i],
			spotPoint:  base.spotPoints[i],
		}
		n.priceH = c.price(n.typ, n.zone, n.spot)
		if len(ns.Items) > 0 {
			start := len(items)
			items = append(items, ns.Items...)
			n.items = items[start:len(items):len(items)]
			n.recompute()
		}
		c.nodes[i] = n
		if n.live {
			c.zoneLive[n.zone]++
			if n.spot {
				c.spotLive++
			}
			c.touchNode(n)
		}
	}
	c.liveCount = base.liveCount
	c.idx.ver = s.IdxVer
	c.liveList = make([]*node, len(s.LiveList))
	for i, nid := range s.LiveList {
		c.liveList[i] = c.nodes[nid]
	}
	c.dirtyList = make([]*node, 0, len(s.DirtyList))
	if cfg.Policy == Hostlo {
		for _, nid := range s.DirtyList {
			n := c.nodes[nid]
			n.dirty = true
			c.dirtyList = append(c.dirtyList, n)
		}
	}

	// Pending queue.
	c.pq = make(podQueue, len(s.PQ))
	for i, e := range s.PQ {
		c.pq[i] = podEntry{key: e.Key, seq: e.Seq, idx: int(e.Idx)}
	}

	// Replay the pending event set in ascending original-seq order:
	// relative order — the only observable part of a sequence number —
	// is preserved under the fresh seqs At assigns.
	for _, ev := range base.events {
		c.schedEvent(ev.At, evKind(ev.Kind), ev.A, ev.B)
	}

	// Policy switch: give the first Hostlo optimize pass the whole live
	// fleet (churn under the old policy never marked anything).
	if switched && cfg.Policy == Hostlo {
		c.dirty = true
		for _, n := range c.liveList {
			if n.live && !n.dirty {
				n.dirty = true
				c.dirtyList = append(c.dirtyList, n)
			}
		}
	}

	o.Rec.Rebind(eng)
	return c, nil
}

// restoreBase is what every branch restored from one snapshot shares:
// the validation verdict and the read-only state derived from the
// snapshot alone. It is built on the snapshot's first Restore, so a
// Restore copies the branch's mutable state and re-derives nothing: no
// snapshot check, no packing-cache key, no pod-ID map, no node name.
type restoreBase struct {
	err error // the validation verdict; nothing below is set when non-nil

	cfg        Config // Cfg with defaults filled, no workload, no recorder
	trajStride int
	liveCount  int

	// pack keys the captured packing cache; packErr is its error,
	// reported after the fault injector's, as Restore always has.
	pack    *cloudsim.PackCacheIndex
	packErr error

	podIndex map[string]int // pod ID → first index; branches share it (Cluster.podBase)
	onNodes  int            // placement-map entries over all pods
	items    int            // placed items over all nodes

	// nodePoints[i] is node i's fault point "node/<name>" (the name is
	// its suffix); spotPoints[i] is "spot/<name>" for a spot node, else
	// "".
	nodePoints []string
	spotPoints []string

	events []EventSnap // pending events, ascending Seq
}

// restoreBase returns the snapshot's derived restore state, building it
// on first use. Concurrent first Restores build it once.
func (s *Snapshot) restoreBase() *restoreBase {
	s.derive.Do(func() { s.base = s.deriveBase() })
	return s.base
}

// deriveBase validates the snapshot and derives the shared restore
// state.
func (s *Snapshot) deriveBase() *restoreBase {
	cfg := s.Cfg
	cfg.Pods = nil
	cfg.Rec = nil
	cfg = cfg.withDefaults()
	liveCount, err := s.validate(cfg)
	if err != nil {
		return &restoreBase{err: err}
	}
	b := &restoreBase{cfg: cfg, trajStride: trajStride(cfg), liveCount: liveCount}
	b.pack, b.packErr = cloudsim.IndexPackCache(s.Pack)

	b.podIndex = make(map[string]int, len(s.Pods))
	for i := range s.Pods {
		ps := &s.Pods[i]
		b.onNodes += len(ps.OnNodes)
		if _, dup := b.podIndex[ps.Pod.ID]; !dup {
			b.podIndex[ps.Pod.ID] = i
		}
	}

	b.nodePoints = make([]string, len(s.Nodes))
	b.spotPoints = make([]string, len(s.Nodes))
	for i := range s.Nodes {
		b.items += len(s.Nodes[i].Items)
		name := "n" + strconv.Itoa(i)
		b.nodePoints[i] = "node/" + name
		if s.Nodes[i].Spot {
			b.spotPoints[i] = "spot/" + name
		}
	}

	b.events = slices.Clone(s.Events)
	slices.SortFunc(b.events, func(x, y EventSnap) int { return cmp.Compare(x.Seq, y.Seq) })
	return b
}

// validate is the structural check of a snapshot against its defaulted
// config: everything Restore indexes must be in range, so a hostile
// snapshot fails cleanly here.
func (s *Snapshot) validate(cfg Config) (liveCount int, err error) {
	nPods, nNodes, nTypes := len(s.Pods), len(s.Nodes), len(cfg.Catalog)
	if nNodes > 0 && nTypes == 0 {
		return 0, fmt.Errorf("cluster: snapshot has %d nodes but an empty catalog", nNodes)
	}
	for i := range s.Nodes {
		if t := int(s.Nodes[i].Typ); t < 0 || t >= nTypes {
			return 0, fmt.Errorf("cluster: node %d type %d out of catalog range %d", i, t, nTypes)
		}
		if z := int(s.Nodes[i].Zone); z < 0 || z >= cfg.Zones {
			return 0, fmt.Errorf("cluster: node %d zone %d out of range %d", i, z, cfg.Zones)
		}
	}
	if s.OdFallback < 0 {
		return 0, fmt.Errorf("cluster: negative on-demand fallback credit %d", s.OdFallback)
	}
	if s.TrajWin.Points < 0 || s.TrajWin.Points >= trajStride(cfg) {
		return 0, fmt.Errorf("cluster: trajectory window holds %d points of a %d-wide stride", s.TrajWin.Points, trajStride(cfg))
	}
	for i := range s.Pods {
		ps := &s.Pods[i]
		if ps.State < int8(statePending) || ps.State > int8(stateTransferred) {
			return 0, fmt.Errorf("cluster: pod %d state %d out of range", i, ps.State)
		}
		for _, nid := range ps.OnNodes {
			if nid < 0 || int(nid) >= nNodes {
				return 0, fmt.Errorf("cluster: pod %d placement map names node %d of %d", i, nid, nNodes)
			}
		}
	}
	liveSeen := make(map[int32]bool, len(s.LiveList))
	for _, nid := range s.LiveList {
		if nid < 0 || int(nid) >= nNodes {
			return 0, fmt.Errorf("cluster: live list names node %d of %d", nid, nNodes)
		}
		if liveSeen[nid] {
			return 0, fmt.Errorf("cluster: live list names node %d twice", nid)
		}
		liveSeen[nid] = true
	}
	deadInList := 0
	for i := range s.Nodes {
		if s.Nodes[i].Live {
			liveCount++
			if !liveSeen[int32(i)] {
				return 0, fmt.Errorf("cluster: live node %d missing from the live list", i)
			}
		}
	}
	for _, nid := range s.LiveList {
		if !s.Nodes[nid].Live {
			deadInList++
		}
	}
	if deadInList != s.DeadLive {
		return 0, fmt.Errorf("cluster: %d dead live-list entries, DeadLive says %d", deadInList, s.DeadLive)
	}
	for _, nid := range s.DirtyList {
		if nid < 0 || int(nid) >= nNodes {
			return 0, fmt.Errorf("cluster: dirty list names node %d of %d", nid, nNodes)
		}
	}
	if s.BlockedPod < -1 || s.BlockedPod >= nPods {
		return 0, fmt.Errorf("cluster: blocked pod %d out of range %d", s.BlockedPod, nPods)
	}
	for _, e := range s.PQ {
		if e.Idx < 0 || int(e.Idx) >= nPods {
			return 0, fmt.Errorf("cluster: heap entry names pod %d of %d", e.Idx, nPods)
		}
	}
	provPending := 0
	for _, ev := range s.Events {
		if ev.Kind == 0 || evKind(ev.Kind) >= evKindMax {
			return 0, fmt.Errorf("cluster: unknown pending event kind %d", ev.Kind)
		}
		if ev.At < s.Eng.Now {
			return 0, fmt.Errorf("cluster: pending event at %v before the captured clock %v", ev.At, s.Eng.Now)
		}
		switch evKind(ev.Kind) {
		case evArrive, evDepart, evEnd, evAdopt:
			if ev.A < 0 || ev.A >= int64(nPods) {
				return 0, fmt.Errorf("cluster: pending %d event names pod %d of %d", ev.Kind, ev.A, nPods)
			}
		case evProvRetry, evNodeReady:
			if ev.A < 0 || ev.A >= int64(nTypes) {
				return 0, fmt.Errorf("cluster: pending %d event names type %d of %d", ev.Kind, ev.A, nTypes)
			}
			if ev.B < 0 || ev.B>>1 >= int64(cfg.Zones) {
				return 0, fmt.Errorf("cluster: pending %d event names zone %d of %d", ev.Kind, ev.B>>1, cfg.Zones)
			}
			provPending++
		}
	}
	if provPending != s.Inflight {
		return 0, fmt.Errorf("cluster: %d provisioning events pending, Inflight says %d", provPending, s.Inflight)
	}
	if s.Pack != nil {
		for ei := range s.Pack.Entries {
			e := &s.Pack.Entries[ei]
			for _, vms := range [2][]cloudsim.PlacedVM{e.Input, e.Output} {
				for _, vm := range vms {
					if vm.Type < 0 || vm.Type >= nTypes {
						return 0, fmt.Errorf("cluster: pack cache entry %d names type %d of %d", ei, vm.Type, nTypes)
					}
				}
			}
		}
	}
	return liveCount, nil
}

// Fork captures the world and restores an independent branch in one
// call: the copy-on-write what-if primitive. The parent is untouched
// and may keep advancing; for many branches off one instant, Capture
// once and Restore per branch instead (one shared frozen snapshot).
func (c *Cluster) Fork(o RestoreOpts) (*Cluster, error) {
	s, err := c.Capture()
	if err != nil {
		return nil, err
	}
	return Restore(s, o)
}

// AdoptPods materializes extra pods into a running world at the current
// instant — the "what if 10k more pods arrive" branch delta. Each pod
// arrives at max(Now, its Arrival stamp) and is booked under the
// Adopted counter (the conservation audit's third inflow, alongside
// Arrived and TransferredIn). Pod IDs must be new to this world.
func (c *Cluster) AdoptPods(pods []trace.Pod) error {
	now := c.eng.Now()
	if now > sim.Time(c.cfg.Horizon) {
		return fmt.Errorf("cluster: adopting pods at %v, past the horizon %v", now, c.cfg.Horizon)
	}
	for _, p := range pods {
		if _, dup := c.podOf(p.ID); dup {
			return fmt.Errorf("cluster: adopt duplicate pod %s", p.ID)
		}
		i := len(c.pods)
		c.pods = append(c.pods, podRun{
			pod:       p,
			cpu:       p.TotalCPU(),
			mem:       p.TotalMem(),
			remaining: p.Lifetime,
		})
		c.podIndex[p.ID] = i
		at := sim.Time(p.Arrival)
		if at < now {
			at = now
		}
		if at > sim.Time(c.cfg.Horizon) {
			c.res.BeyondHorizon++
			continue
		}
		c.schedEvent(at, evAdopt, int64(i), 0)
	}
	return nil
}

// arriveAdopted admits an adopted pod: identical to arrive except the
// inflow is booked as Adopted.
func (c *Cluster) arriveAdopted(i int) {
	p := &c.pods[i]
	p.arrivedAt = c.eng.Now()
	p.waitSince = p.arrivedAt
	c.res.Adopted++
	c.count("cluster/adopted")
	c.enqueue(i)
	c.kickSchedule()
}

// LiveNodeNames lists the live fleet's node names in creation order —
// the addressable targets for KillNodesNow.
func (c *Cluster) LiveNodeNames() []string {
	names := make([]string, 0, c.liveCount)
	for _, n := range c.liveList {
		if n.live {
			names = append(names, n.name)
		}
	}
	return names
}

// KillNodesNow fails the named live nodes at the current instant — the
// "what if this zone dies" branch delta, with exactly the semantics of
// a fault-injected node kill (bill settled, pods displaced back into
// the queue, Kills counted). All names are validated live before
// anything dies.
func (c *Cluster) KillNodesNow(names []string) error {
	want := make(map[string]bool, len(names))
	for _, name := range names {
		want[name] = true
	}
	found := 0
	for _, n := range c.liveList {
		if n.live && want[n.name] {
			found++
		}
	}
	if found != len(want) {
		for _, name := range names {
			ok := false
			for _, n := range c.liveList {
				if n.live && n.name == name {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("cluster: kill target %q is not a live node", name)
			}
		}
	}
	now := c.eng.Now()
	for _, n := range c.liveList {
		if n.live && want[n.name] {
			c.killNode(n, now)
		}
	}
	if len(c.pq) > 0 {
		c.kickSchedule()
	}
	return nil
}

// Now reports the engine's current virtual instant.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }
