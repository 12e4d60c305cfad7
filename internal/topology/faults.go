package topology

import (
	"fmt"
	"strconv"
	"strings"

	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
)

// Failure-aware up/down routing.
//
// RouteOn is the single routing function every simulator layer shares: the
// healthy Topology router, the PDES network builder, and its partition-graph
// weighting all call it, so the ECMP arithmetic and the failure semantics
// cannot drift apart. It is a pure function of (config, schedule, time) — see
// package faults for why that purity is what makes fault injection
// bit-reproducible under every sync algorithm.
//
// The failure model is link-state routing with a detection delay: every
// switch eventually knows the up/down state of every link and switch in the
// fabric, but only Detect(+jitter) after the physical event. Until a viewer
// detects a failure it keeps hashing flows onto the dead element and those
// packets blackhole at the physical failure point (counted as FaultDrops by
// netsim, never silent). After detection the viewer rehashes deterministically
// over the SURVIVING equal-cost set, sorted ascending, so when every element
// is up the pick reduces to exactly the healthy hash%n arithmetic — which
// RouteOn therefore takes outright at every instant no viewer believes any
// element down (faults.Schedule.AllViewedUp).

// RouteOn routes p at switch sw on a fabric shaped by cfg, under fault
// schedule sched as seen at virtual time now. A nil or empty schedule gives
// the healthy routing, independent of now. ok is false when sw knows no
// surviving route (the caller counts a route drop).
func RouteOn(cfg *Config, sched *faults.Schedule, now des.Time, sw packet.NodeID, p *packet.Packet) (int, bool) {
	dst := int(p.Dst)
	perCluster := cfg.ToRsPerCluster * cfg.ServersPerToR
	if dst < 0 || dst >= cfg.NumHosts() {
		return 0, false
	}
	torBase, aggBase, coreBase := cfg.Bases()
	dstToR := dst / cfg.ServersPerToR
	dstCluster := dst / perCluster
	healthy := sched.AllViewedUp(now)
	switch {
	case sw >= coreBase: // core: one port per cluster
		return dstCluster, true

	case sw >= aggBase: // agg / spine
		agg := int(sw - aggBase)
		if cfg.Kind == LeafSpine {
			return dstToR, true // spine port index == leaf index
		}
		cluster := agg / cfg.AggsPerCluster
		if dstCluster == cluster {
			return dstToR % cfg.ToRsPerCluster, true // down to ToR
		}
		h := ecmpHash(sw, p, cfg.ECMPSeed)
		if healthy {
			return cfg.ToRsPerCluster + int(h%uint64(cfg.CoresPerAgg)), true
		}
		// Survivors among this agg's core group: the uplink, the core, and
		// the core's down-link into the destination cluster must all be
		// believed up (the destination agg itself is checked by the source
		// ToR when it picks the aggregation position).
		apos := agg % cfg.AggsPerCluster
		dstAgg := aggBase + packet.NodeID(dstCluster*cfg.AggsPerCluster+apos)
		dead := func(j int) bool {
			core := coreBase + packet.NodeID(apos*cfg.CoresPerAgg+j)
			return sched.ViewedLinkDown(sw, sw, core, now) ||
				sched.ViewedSwitchDown(sw, core, now) ||
				sched.ViewedLinkDown(sw, core, dstAgg, now)
		}
		j, ok := pickSurvivor(cfg.CoresPerAgg, h, dead)
		return cfg.ToRsPerCluster + j, ok

	case sw >= torBase: // ToR
		tor := int(sw - torBase)
		if dstToR == tor {
			return dst % cfg.ServersPerToR, true // down to host
		}
		uplinks := cfg.AggsPerCluster
		h := ecmpHash(sw, p, cfg.ECMPSeed)
		if healthy {
			return cfg.ServersPerToR + int(h%uint64(uplinks)), true
		}
		dstToRID := torBase + packet.NodeID(dstToR)
		a, ok := pickSurvivor(uplinks, h, func(a int) bool {
			return torUplinkDead(cfg, sched, now, sw, a, torBase, aggBase, dstToRID, dstCluster)
		})
		return cfg.ServersPerToR + a, ok

	default: // host: hosts do not route
		return 0, false
	}
}

// pickSurvivor returns the (h mod m)-th of the m candidates in [0, n) that
// dead does not reject, in ascending order — the rehash over the surviving
// equal-cost set — and false when none survives. dead runs once per
// candidate, into a bit mask the pick then walks; up to 64 candidates the
// mask lives on the stack and nothing is allocated.
func pickSurvivor(n int, h uint64, dead func(int) bool) (int, bool) {
	var small [1]uint64
	alive := small[:]
	if n > 64 {
		alive = make([]uint64, (n+63)/64)
	}
	m := 0
	for i := 0; i < n; i++ {
		if !dead(i) {
			alive[i/64] |= 1 << (i % 64)
			m++
		}
	}
	if m == 0 {
		return 0, false
	}
	k := int(h % uint64(m))
	for i := 0; ; i++ {
		if alive[i/64]&(1<<(i%64)) != 0 {
			if k == 0 {
				return i, true
			}
			k--
		}
	}
}

// torUplinkDead reports whether ToR sw believes (at time now) that uplink
// position a cannot carry traffic toward dstToR.
func torUplinkDead(cfg *Config, sched *faults.Schedule, now des.Time,
	sw packet.NodeID, a int, torBase, aggBase, dstToRID packet.NodeID, dstCluster int) bool {

	if cfg.Kind == LeafSpine {
		spine := aggBase + packet.NodeID(a)
		return sched.ViewedLinkDown(sw, sw, spine, now) ||
			sched.ViewedSwitchDown(sw, spine, now) ||
			sched.ViewedLinkDown(sw, spine, dstToRID, now)
	}
	cluster := int(sw-torBase) / cfg.ToRsPerCluster
	srcAgg := aggBase + packet.NodeID(cluster*cfg.AggsPerCluster+a)
	if sched.ViewedLinkDown(sw, sw, srcAgg, now) ||
		sched.ViewedSwitchDown(sw, srcAgg, now) {
		return true
	}
	if dstCluster == cluster {
		// Intra-cluster: the chosen agg connects straight down to dstToR.
		return sched.ViewedLinkDown(sw, srcAgg, dstToRID, now)
	}
	// Inter-cluster: the aggregation position is preserved across the core,
	// so choosing a also chooses the destination-side agg.
	dstAgg := aggBase + packet.NodeID(dstCluster*cfg.AggsPerCluster+a)
	return sched.ViewedSwitchDown(sw, dstAgg, now) ||
		sched.ViewedLinkDown(sw, dstAgg, dstToRID, now)
}

// ParseFaults parses a fault scenario spec (see faults.Parse for the grammar)
// resolving device names back to NodeIDs — the inverse of Config.NodeName,
// with spine<i> and agg<i> accepted on either fabric kind. The schedule's
// detection jitter is salted with cfg.ECMPSeed so a config fully determines
// the scenario.
func ParseFaults(cfg Config, spec string) (*faults.Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tor, agg, core := cfg.Bases()
	type tier struct {
		base packet.NodeID
		n    int
	}
	tiers := map[string]tier{
		"host":  {0, cfg.NumHosts()},
		"tor":   {tor, cfg.NumToRs()},
		"spine": {agg, cfg.NumAggs()},
		"agg":   {agg, cfg.NumAggs()},
		"core":  {core, cfg.NumCores()},
	}
	resolve := func(name string) (packet.NodeID, error) {
		prefix := strings.TrimRight(name, "0123456789")
		idx, err := strconv.Atoi(name[len(prefix):])
		if err != nil {
			return 0, fmt.Errorf("device %q: missing index", name)
		}
		t, ok := tiers[prefix]
		if !ok {
			return 0, fmt.Errorf("device %q: unknown tier %q", name, prefix)
		}
		if idx >= t.n {
			return 0, fmt.Errorf("device %q: index out of range (have %d)", name, t.n)
		}
		return t.base + packet.NodeID(idx), nil
	}
	return faults.Parse(spec, cfg.ECMPSeed, resolve)
}

// switchByID returns the switch with the given NodeID, nil for hosts or
// out-of-range IDs.
func (t *Topology) switchByID(id packet.NodeID) *netsim.Switch {
	switch {
	case id >= t.coreBase && int(id-t.coreBase) < len(t.Cores):
		return t.Cores[id-t.coreBase]
	case id >= t.aggBase && id < t.coreBase:
		return t.Aggs[id-t.aggBase]
	case id >= t.torBase && id < t.aggBase:
		return t.ToRs[id-t.torBase]
	default:
		return nil
	}
}
