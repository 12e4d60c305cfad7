// Package approx implements the approximated region: a single simulation
// module that stands in for every switch on one side of a
// topology.Boundary, replacing their queuing, routing, and packet processing
// with macro + micro model predictions. On the cluster side it is one
// cluster's fabric, its ToR and Cluster switches (paper Fig. 3); on the
// whole-network side it is the §7 single black box, every core and every
// other cluster's switches.
//
// Where the full-fidelity fabric costs roughly two scheduler events per
// packet per hop (serialization completion and arrival) plus queue state,
// the approximated fabric costs exactly one event per traversal: the
// predicted delivery. That event elision — "the events scheduled in the
// approximated network fabrics are completely removed and replaced with
// LSTM classifications" (§6.2) — is the entire speedup mechanism.
//
// Predicted latencies can collide into impossible schedules; per the paper
// (§4.2), "the one processed first is given priority, with [the] conflicting
// packet sent at the next possible time": each boundary keeps a next-free
// time and serializes conflicting deliveries at link rate.
package approx

import (
	"fmt"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/metrics"
	"approxsim/internal/micro"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// Stats counts the fabric's activity. Egress traversals leave the
// boundary's cluster, Ingress traversals enter it.
type Stats struct {
	EgressPackets  uint64 // traversals leaving the boundary's cluster
	IngressPackets uint64 // traversals entering the boundary's cluster
	IntraPackets   uint64 // host-edge to host-edge traversals (normally elided loads)
	EgressDrops    uint64 // model-predicted drops, egress
	IngressDrops   uint64 // model-predicted drops, ingress
	Conflicts      uint64 // deliveries bumped by schedule-conflict resolution
}

// Fabric is the approximated region on one side of a boundary: a
// netsim.Device whose behavior is a pair of micro predictors plus a
// macro-state classifier. It attaches at two edges: the cut, where slot k
// faces core k, and the host edge, one slot per host whose link ends in the
// region.
type Fabric struct {
	kernel *des.Kernel
	topo   *topology.Topology
	b      topology.Boundary

	pred    [2]*micro.Predictor // indexed by trace.Direction
	cls     *macro.Classifier
	noMacro bool

	// hostIn is the direction of a traversal entering at the host edge:
	// Egress for a cluster's fabric, Ingress for the black box.
	hostIn trace.Direction
	// crossHops and intraHops are the switch hops a traversal elides: across
	// the cut, and from host edge to host edge.
	crossHops, intraHops int8

	cut, hosts edge

	stats Stats

	// Model-inference observability: how often the micro models run and how
	// much wall-clock each prediction costs. Prediction latency is the
	// hybrid simulator's hot path — "one event per traversal" only pays off
	// while inference stays cheap — so it is measured directly, on one
	// prediction in predictSample, rather than inferred from run totals.
	invocations metrics.Counter
	predNanos   metrics.Histogram
}

// predictSample is how many predictions one timed prediction stands for.
// Two clock reads cost a few percent of a prediction, so timing every one
// would skew the number it measures.
const predictSample = 16

// edge is one set of attachment points: per slot, the fabric's port, the
// delivery handler bound to the device behind it, and the earliest time
// the slot may next deliver (conflict resolution).
type edge struct {
	ports []*netsim.Port
	to    []func(ctx any)
	free  []des.Time
}

// attach adds a slot to e: the fabric's next port, with link cfg, wired to
// peer, whose deliveries dev receives on port in.
func (f *Fabric) attach(e *edge, cfg netsim.LinkConfig, peer *netsim.Port, dev netsim.Device, in int) {
	p := netsim.NewPort(f.kernel, f, len(f.cut.ports)+len(f.hosts.ports), cfg)
	netsim.Connect(peer, p)
	e.ports = append(e.ports, p)
	e.to = append(e.to, func(ctx any) { dev.Receive(ctx.(*packet.Packet), in) })
	e.free = append(e.free, 0)
}

// Splice replaces the switches on b's replaced side of topo with one
// approximated fabric driven by the given predictors (egress leaves b's
// cluster, ingress enters it). The hosts and switches at the edges are
// re-wired to the fabric; the replaced switches are left orphaned (they
// receive no further traffic and schedule no events). Predictors must be
// dedicated to this fabric — they carry streaming state. noMacro pins the
// macro-state feature to Minimal (the macro-ablation arm; it must match how
// the models were trained).
func Splice(topo *topology.Topology, b topology.Boundary, egress, ingress *micro.Predictor,
	mcfg macro.Config, noMacro bool) (*Fabric, error) {

	if topo.Cfg.Kind != topology.ThreeTierClos {
		return nil, fmt.Errorf("approx: only 3-tier Clos topologies have a cluster boundary")
	}
	if b.Cluster < 0 || b.Cluster >= topo.Cfg.Clusters {
		return nil, fmt.Errorf("approx: cluster %d out of range [0,%d)", b.Cluster, topo.Cfg.Clusters)
	}
	if egress == nil || ingress == nil {
		return nil, fmt.Errorf("approx: both direction predictors are required")
	}
	f := &Fabric{
		kernel: topo.Kernel, topo: topo, b: b,
		pred:    [2]*micro.Predictor{trace.Egress: egress, trace.Ingress: ingress},
		cls:     macro.New(mcfg),
		noMacro: noMacro,
		// A cluster's fabric elides its ToR and agg hops.
		hostIn: trace.Egress, crossHops: 2, intraHops: 2,
	}
	if b.WholeNet {
		// Core, remote agg and remote ToR across the cut; ToR, agg, core,
		// agg and ToR between two remote hosts.
		f.hostIn, f.crossHops, f.intraHops = trace.Ingress, 3, 5
	}
	// Cut slots come first in port order, then the host edge.
	for k, core := range topo.Cores {
		agg, port := topo.CutPort(b.Cluster, k)
		if b.WholeNet {
			f.attach(&f.cut, topo.Cfg.CoreLink, agg.Port(port), agg, port)
		} else {
			f.attach(&f.cut, topo.Cfg.CoreLink, core.Port(b.Cluster), core, b.Cluster)
		}
	}
	for c := 0; c < topo.Cfg.Clusters; c++ {
		if !b.Inside(c) {
			continue
		}
		for _, h := range topo.HostsInCluster(c) {
			f.attach(&f.hosts, topo.Cfg.HostLink, h.NIC(), h, 0)
		}
	}
	return f, nil
}

// NodeID implements netsim.Device. Negative IDs cannot collide with
// topology-assigned ones.
func (f *Fabric) NodeID() packet.NodeID {
	if f.b.WholeNet {
		return -1_000_000
	}
	return packet.NodeID(-(f.b.Cluster + 1))
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MacroState returns the fabric's current congestion regime.
func (f *Fabric) MacroState() macro.State { return f.cls.Current() }

// CollectMetrics implements metrics.Collector. Register every fabric of a
// run under one group for whole-run totals.
func (f *Fabric) CollectMetrics(e *metrics.Emitter) {
	e.Counter("egress_packets", f.stats.EgressPackets)
	e.Counter("ingress_packets", f.stats.IngressPackets)
	e.Counter("intra_packets", f.stats.IntraPackets)
	e.Counter("egress_drops", f.stats.EgressDrops)
	e.Counter("ingress_drops", f.stats.IngressDrops)
	e.Counter("conflicts", f.stats.Conflicts)
	e.Counter("model_invocations", f.invocations.Value())
	e.Histogram("prediction_wall_ns", &f.predNanos)
}

// macroFeature returns the state fed to the micro models.
func (f *Fabric) macroFeature() macro.State {
	if f.noMacro {
		return macro.Minimal
	}
	return f.cls.Current()
}

// hostSlot maps a host on the host edge to its slot: host IDs in order,
// skipping the clusters whose links do not end in the region.
func (f *Fabric) hostSlot(h packet.HostID) int {
	per := f.topo.Cfg.ToRsPerCluster * f.topo.Cfg.ServersPerToR
	switch {
	case !f.b.WholeNet:
		return int(h) - f.b.Cluster*per
	case int(h) >= (f.b.Cluster+1)*per:
		return int(h) - per
	}
	return int(h)
}

// Receive implements netsim.Device: every arriving packet is one boundary
// traversal, resolved by a single model prediction and (at most) a single
// scheduled delivery event.
func (f *Fabric) Receive(pkt *packet.Packet, inPort int) {
	if int(pkt.Dst) < 0 || int(pkt.Dst) >= len(f.topo.Hosts) {
		return // no such host: a real fabric would blackhole it just the same
	}
	fromHost := inPort >= len(f.cut.ports)
	toHost := f.b.Inside(f.topo.ClusterOf(pkt.Dst))
	if !fromHost && !toHost {
		return // misrouted back across the cut: blackholed likewise
	}
	dir := f.hostIn
	if !fromHost {
		dir = 1 - dir
	}

	now := f.kernel.Now()
	st := f.macroFeature()
	path := f.topo.PathFor(pkt.Src, pkt.Dst, pkt.FlowID)
	// Time one prediction in predictSample, picked by invocation count so
	// the choice is deterministic.
	timed := f.invocations.Value()%predictSample == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	drop, lat := f.pred[dir].Predict(now, pkt.Src, pkt.Dst, pkt.Size(), pkt.IsAck(), path, st)
	if timed {
		f.predNanos.ObserveN(uint64(time.Since(t0)), predictSample)
	}
	f.invocations.Inc()
	f.cls.Observe(now, lat.Seconds(), drop)

	hops := f.crossHops
	switch {
	case fromHost && toHost:
		// Host edge to host edge through the region. The workload normally
		// elides it (§6.2); when it does occur, one prediction covers the
		// whole transit.
		f.stats.IntraPackets++
		hops = f.intraHops
	case dir == trace.Egress:
		f.stats.EgressPackets++
	default:
		f.stats.IngressPackets++
	}
	if drop {
		if dir == trace.Egress {
			f.stats.EgressDrops++
		} else {
			f.stats.IngressDrops++
		}
		return
	}
	if toHost {
		f.deliver(pkt, now+lat, &f.hosts, f.hostSlot(pkt.Dst), hops)
	} else if path.Core >= 0 {
		// Out across the cut, on the slot the routing arithmetic picks.
		f.deliver(pkt, now+lat, &f.cut, f.topo.CoreIndex(path.Core), hops)
	}
}

// deliver schedules the single delivery event of a traversal on slot i of
// e, resolving schedule conflicts per slot. The event takes the packet as
// its context, so it allocates no closure; band 0 and key 0 are the
// ordering key des.Kernel.At uses.
func (f *Fabric) deliver(pkt *packet.Packet, at des.Time, e *edge, i int, hops int8) {
	ser := e.ports[i].Config().SerializationDelay(pkt.Size())
	if at < e.free[i] {
		at = e.free[i]
		f.stats.Conflicts++
	}
	e.free[i] = at + ser
	pkt.Hops += hops
	pkt.TTL -= hops
	f.kernel.AtCtxFn(at, 0, 0, pkt, e.to[i])
}
