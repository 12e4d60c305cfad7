package topology

import (
	"fmt"
	"strconv"
	"strings"

	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/netsim"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

// Failure-aware up/down routing.
//
// RouteOn is the single routing function every simulator layer shares: the
// single-kernel Topology, the PDES network builder, and its partition-graph
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
// is up the pick reduces to exactly the healthy hash%n arithmetic.

// RouteOn routes p at switch sw on a fabric shaped by cfg, under fault
// schedule sched as seen at virtual time now. A nil or empty schedule gives
// the healthy routing, independent of now. ok is false when sw knows no
// surviving route (the caller counts a route drop).
func RouteOn(cfg Config, sched *faults.Schedule, now des.Time, sw packet.NodeID, p *packet.Packet) (int, bool) {
	dst := int(p.Dst)
	perCluster := cfg.ToRsPerCluster * cfg.ServersPerToR
	if dst < 0 || dst >= cfg.NumHosts() {
		return 0, false
	}
	torBase, aggBase, coreBase := cfg.Bases()
	dstToR := dst / cfg.ServersPerToR
	dstCluster := dst / perCluster
	healthy := sched.Empty()
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
		var survivors []int
		for j := 0; j < cfg.CoresPerAgg; j++ {
			core := coreBase + packet.NodeID(apos*cfg.CoresPerAgg+j)
			if sched.ViewedLinkDown(sw, sw, core, now) ||
				sched.ViewedSwitchDown(sw, core, now) ||
				sched.ViewedLinkDown(sw, core, dstAgg, now) {
				continue
			}
			survivors = append(survivors, j)
		}
		if len(survivors) == 0 {
			return 0, false
		}
		return cfg.ToRsPerCluster + survivors[h%uint64(len(survivors))], true

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
		var survivors []int
		for a := 0; a < uplinks; a++ {
			if torUplinkDead(cfg, sched, now, sw, a, torBase, aggBase, dstToRID, dstCluster) {
				continue
			}
			survivors = append(survivors, a)
		}
		if len(survivors) == 0 {
			return 0, false
		}
		return cfg.ServersPerToR + survivors[h%uint64(len(survivors))], true

	default: // host: hosts do not route
		return 0, false
	}
}

// torUplinkDead reports whether ToR sw believes (at time now) that uplink
// position a cannot carry traffic toward dstToR.
func torUplinkDead(cfg Config, sched *faults.Schedule, now des.Time,
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

// Faults returns the installed schedule (nil when healthy).
func (t *Topology) Faults() *faults.Schedule { return t.sched }

// SetFaults installs a fault schedule on a built topology: routing turns
// failure-aware, down-state closures are wired onto every affected port and
// switch, and fail/detect/recover instants are scheduled as ordinary kernel
// events for the trace. Call before Run; passing nil (or an empty schedule)
// keeps the topology healthy.
func (t *Topology) SetFaults(sched *faults.Schedule) error {
	if err := sched.Validate(); err != nil {
		return err
	}
	t.sched = sched
	if sched.Empty() {
		return nil
	}
	for _, l := range t.links {
		if !sched.TouchesLink(l.a, l.b) {
			continue
		}
		a, b := l.a, l.b
		down := func(at des.Time) bool { return sched.PathDown(a, b, at) }
		l.pa.Down = down
		l.pb.Down = down
	}
	for i := range sched.Faults {
		f := &sched.Faults[i]
		if f.Kind != faults.SwitchFault {
			continue
		}
		if sw := t.switchByID(f.A); sw != nil {
			id := f.A
			sw.Down = func(at des.Time) bool { return sched.SwitchDown(id, at) }
		}
	}
	ScheduleFaultInstants(t.Kernel, sched, t.switchByID)
	return nil
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

// ScheduleFaultInstants schedules the fail / detected / recover instants of
// every fault visible to lookup as ordinary kernel events on k, emitting
// trace instants on the involved switch's track. The events carry no
// simulation state — fault state itself is a pure function of time — they
// exist so the outage windows are visible in the Chrome trace next to the
// packet lifecycle they explain. The PDES network builder calls this once per
// LP with a lookup restricted to locally owned switches.
func ScheduleFaultInstants(k *des.Kernel, sched *faults.Schedule,
	lookup func(packet.NodeID) *netsim.Switch) {

	if sched.Empty() {
		return
	}
	for i := range sched.Faults {
		f := sched.Faults[i]
		sw := lookup(f.A)
		if sw == nil && f.Kind == faults.LinkFault {
			sw = lookup(f.B)
		}
		if sw == nil {
			continue
		}
		sw, tid := sw, int32(sw.NodeID())
		emit := func(at des.Time, name string) {
			k.At(at, func() {
				buf := sw.TraceBuf() // resolved at fire time: SetTrace may follow SetFaults
				if buf == nil {
					return
				}
				buf.Emit(obs.Event{TS: k.Now(), Ph: obs.PhInstant,
					Name: name, Cat: "faults", Tid: tid,
					K1: "a", V1: int64(f.A), K2: "b", V2: int64(f.B)})
			})
		}
		kind := f.Kind.String()
		emit(f.At, kind+"_fail")
		emit(f.At+f.Detect, "fault_detected")
		if f.Recover > 0 {
			emit(f.Recover, kind+"_recover")
		}
	}
}
