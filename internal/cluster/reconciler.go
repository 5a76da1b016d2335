package cluster

import (
	"fmt"
	"sort"

	"nestless/internal/sim"
)

// The declarative autoscaler: cluster-api-style machine management as
// an idempotent reconcile loop on the sim clock. The observed state is
// the live fleet plus the in-flight provisioning ledger (MachineSets
// exposes it); the desired state is implicit — enough capacity to
// unblock the scheduler's head pod, spread across zones, with
// Config.SpotFrac of the fleet on spot capacity. Each reconcile round
// closes at most one unit of the gap (one machine added on demand, any
// number of idle machines reclaimed on the tick resync), so re-running
// a round against converged state is a no-op — the idempotence that
// makes the loop safe to fire from every code path that observes
// pressure.
//
// With one zone and zero spot fraction every decision collapses to the
// imperative loop's (zone 0, on-demand, same single-request-in-flight
// discipline), which is what the equivalence suite pins.

// scaleUp is the scheduler's capacity request: the head pod is blocked
// and wants one machine of catalog type typ. Both autoscaler modes keep
// at most one provisioning request in flight.
func (c *Cluster) scaleUp(typ int) {
	if c.inflight != 0 {
		return
	}
	if c.cfg.Autoscaler == Imperative {
		c.requestNode(typ, 0, false)
		return
	}
	c.reconcileDemand(typ)
}

// reconcileDemand is one demand-driven reconcile round: desired is
// observed plus one machine of type typ; the round places it in the
// emptiest zone and decides spot vs. on-demand against the configured
// fraction (honoring revocation fallback credits first).
func (c *Cluster) reconcileDemand(typ int) {
	zone := c.pickZone()
	spot := c.pickSpot()
	c.res.ReconcileRounds++
	c.res.ReconcileActions++
	c.count("cluster/reconcile_rounds")
	c.count("cluster/reconcile_actions")
	c.requestNode(typ, zone, spot)
}

// pickZone returns the spread-constraint zone choice: the zone with the
// fewest live nodes, ties to the lowest index. Single-zone worlds
// always pick 0.
func (c *Cluster) pickZone() int {
	zone := 0
	for z := 1; z < c.cfg.Zones; z++ {
		if c.zoneLive[z] < c.zoneLive[zone] {
			zone = z
		}
	}
	return zone
}

// pickSpot decides whether the next machine is spot capacity: never
// when the run has no spot fraction, never while a revocation's
// on-demand fallback credit is outstanding (that is the fallback), and
// otherwise exactly when the live spot count is below the configured
// fraction of the fleet-after-this-machine.
func (c *Cluster) pickSpot() bool {
	if c.cfg.SpotFrac <= 0 {
		return false
	}
	if c.odFallback > 0 {
		c.odFallback--
		c.res.OnDemandFallbacks++
		c.count("cluster/od_fallbacks")
		return false
	}
	return float64(c.spotLive) < c.cfg.SpotFrac*float64(c.liveCount+1)
}

// revokeNode preempts a spot node: the provider takes the capacity back
// with kill semantics (bill settled at the spot rate, pods displaced),
// and the replacement machine is credited to fall back to on-demand —
// the standard mitigation for revocation storms.
func (c *Cluster) revokeNode(n *node, now sim.Time) {
	c.res.SpotRevocations++
	c.count("cluster/spot_revocations")
	if c.rec != nil {
		c.rec.Instant("cluster/faults", "spot-revoke", "node", float64(n.id))
	}
	c.odFallback++
	c.drainNode(n, now)
}

// killZone is a whole-zone outage: every live node in the zone dies
// with full node-kill semantics, in creation order.
func (c *Cluster) killZone(z int, now sim.Time) {
	c.res.ZoneKills++
	c.count("cluster/zone_kills")
	if c.rec != nil {
		c.rec.Instant("cluster/faults", "zone-kill", "zone", float64(z))
	}
	for _, n := range c.liveList {
		if n.live && n.zone == z {
			c.killNode(n, now)
		}
	}
}

// MachineSet is one row of the reconciler's observed state: the
// machines sharing (catalog type, zone, spot), split into ready (live)
// and provisioning (requested, not yet booted).
type MachineSet struct {
	Type         int
	Zone         int
	Spot         bool
	Ready        int
	Provisioning int
}

// MachineSets reports the observed machine sets, sorted by (type, zone,
// on-demand-first) — the declarative face of the fleet, also what the
// what-if service surfaces.
func (c *Cluster) MachineSets() []MachineSet {
	type key struct {
		typ, zone int
		spot      bool
	}
	acc := map[key]*MachineSet{}
	get := func(k key) *MachineSet {
		m := acc[k]
		if m == nil {
			m = &MachineSet{Type: k.typ, Zone: k.zone, Spot: k.spot}
			acc[k] = m
		}
		return m
	}
	for _, n := range c.liveList {
		if n.live {
			get(key{n.typ, n.zone, n.spot}).Ready++
		}
	}
	for _, ev := range c.ledger {
		if ev.Kind == evProvRetry || ev.Kind == evNodeReady {
			get(key{int(ev.A), int(ev.B >> 1), ev.B&1 != 0}).Provisioning++
		}
	}
	out := make([]MachineSet, 0, len(acc))
	for _, m := range acc {
		out = append(out, *m)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Type != out[b].Type {
			return out[a].Type < out[b].Type
		}
		if out[a].Zone != out[b].Zone {
			return out[a].Zone < out[b].Zone
		}
		return !out[a].Spot && out[b].Spot
	})
	return out
}

// KillZoneNow fails every live node in the named zone at the current
// instant — the zone-loss drill as a what-if branch delta. Returns how
// many nodes died.
func (c *Cluster) KillZoneNow(zoneName string) (int, error) {
	zone := -1
	for z := 0; z < c.cfg.Zones; z++ {
		if c.cfg.ZoneNames[z] == zoneName {
			zone = z
			break
		}
	}
	if zone < 0 {
		return 0, fmt.Errorf("cluster: zone %q not configured (have %v)", zoneName, c.cfg.ZoneNames[:c.cfg.Zones])
	}
	before := c.zoneLive[zone]
	c.killZone(zone, c.eng.Now())
	if len(c.pq) > 0 {
		c.kickSchedule()
	}
	return before, nil
}

// RevokeSpotNow revokes up to count live spot nodes (creation order) at
// the current instant — the revocation-storm drill for what-if
// branches. Returns how many were revoked.
func (c *Cluster) RevokeSpotNow(count int) (int, error) {
	if count < 1 {
		return 0, fmt.Errorf("cluster: revoke count %d < 1", count)
	}
	now := c.eng.Now()
	revoked := 0
	for _, n := range c.liveList {
		if revoked == count {
			break
		}
		if n.live && n.spot {
			c.revokeNode(n, now)
			revoked++
		}
	}
	if len(c.pq) > 0 {
		c.kickSchedule()
	}
	return revoked, nil
}
