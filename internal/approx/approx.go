// Package approx implements the approximated cluster fabric: a single
// simulation module that stands in for all of a cluster's ToR and Cluster
// switches (paper Fig. 3), replacing their queuing, routing, and packet
// processing with macro + micro model predictions.
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
)

// Stats counts the fabric's activity.
type Stats struct {
	EgressPackets  uint64 // server -> core traversals begun
	IngressPackets uint64 // core -> server traversals begun
	IntraPackets   uint64 // intra-cluster traversals (normally elided loads)
	EgressDrops    uint64 // model-predicted drops, egress
	IngressDrops   uint64 // model-predicted drops, ingress
	Conflicts      uint64 // deliveries bumped by schedule-conflict resolution
}

// Fabric is the approximated cluster: a netsim.Device whose behavior is a
// pair of micro predictors plus a macro-state classifier.
type Fabric struct {
	kernel  *des.Kernel
	topo    *topology.Topology
	cluster int

	egress  *micro.Predictor
	ingress *micro.Predictor
	cls     *macro.Classifier

	hostPorts []*netsim.Port // attachment points for the cluster's hosts
	corePorts []*netsim.Port // attachment points for the core switches

	// Delivery handlers, one per attachment point, bound at Splice.
	toHost []func(ctx any)
	toCore []func(ctx any)

	// Conflict-resolution state: earliest time each boundary may next
	// deliver, per core switch (egress) and per host (ingress).
	coreFree []des.Time
	hostFree []des.Time

	noMacro bool

	stats Stats

	// Model-inference observability: how often the micro models run and how
	// much wall-clock each prediction costs. Prediction latency is the
	// hybrid simulator's hot path — "one event per traversal" only pays off
	// while inference stays cheap — so it is measured directly rather than
	// inferred from run totals.
	invocations metrics.Counter
	predNanos   metrics.Histogram
}

// predict times one micro-model invocation for either direction.
func (f *Fabric) predict(p *micro.Predictor, now des.Time, pkt *packet.Packet,
	st macro.State) (drop bool, lat des.Time) {

	t0 := time.Now()
	drop, lat = p.Predict(now, pkt.Src, pkt.Dst, pkt.FlowID, pkt.Size(), pkt.IsAck(), st)
	f.predNanos.Observe(uint64(time.Since(t0)))
	f.invocations.Inc()
	return drop, lat
}

// CollectMetrics implements metrics.Collector. Register every fabric of a
// hybrid run under one group for whole-run totals.
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

// DisableMacro pins the macro-state feature to Minimal for this fabric's
// predictions — the macro-ablation arm. Must match how the models were
// trained.
func (f *Fabric) DisableMacro() { f.noMacro = true }

// macroFeature returns the state fed to the micro models.
func (f *Fabric) macroFeature() macro.State {
	if f.noMacro {
		return macro.Minimal
	}
	return f.cls.Current()
}

// deliverTo binds the delivery handler for one attachment point: a predicted
// delivery is scheduled with des.Kernel.AtCtxFn and the packet as its
// context, so it allocates no closure. Band 0 and key 0 are the ordering key
// des.Kernel.At uses.
func deliverTo(dev netsim.Device, port int) func(ctx any) {
	return func(ctx any) { dev.Receive(ctx.(*packet.Packet), port) }
}

// nodeID returns the fabric's device ID. Negative IDs cannot collide with
// topology-assigned ones.
func fabricNodeID(cluster int) packet.NodeID { return packet.NodeID(-(cluster + 1)) }

// Splice replaces cluster c's switching fabric in topo with an approximated
// fabric driven by the given predictors. The cluster's hosts and the core
// switches are re-wired to the fabric; the original ToR and Cluster switches
// are left orphaned (they receive no further traffic and schedule no
// events). Predictors must be dedicated to this fabric — they carry
// streaming state.
func Splice(topo *topology.Topology, c int, egress, ingress *micro.Predictor,
	mcfg macro.Config) (*Fabric, error) {

	if topo.Cfg.Kind != topology.ThreeTierClos {
		return nil, fmt.Errorf("approx: only 3-tier Clos topologies have cluster fabrics")
	}
	if c < 0 || c >= topo.Cfg.Clusters {
		return nil, fmt.Errorf("approx: cluster %d out of range [0,%d)", c, topo.Cfg.Clusters)
	}
	if egress == nil || ingress == nil {
		return nil, fmt.Errorf("approx: both direction predictors are required")
	}
	f := &Fabric{
		kernel:  topo.Kernel,
		topo:    topo,
		cluster: c,
		egress:  egress,
		ingress: ingress,
		cls:     macro.New(mcfg),
	}

	hosts := topo.HostsInCluster(c)
	f.hostFree = make([]des.Time, len(hosts))
	for i, h := range hosts {
		p := netsim.NewPort(topo.Kernel, f, i, topo.Cfg.HostLink)
		f.hostPorts = append(f.hostPorts, p)
		f.toHost = append(f.toHost, deliverTo(h, 0))
		netsim.Connect(h.NIC(), p)
	}
	f.coreFree = make([]des.Time, len(topo.Cores))
	for j, core := range topo.Cores {
		p := netsim.NewPort(topo.Kernel, f, len(hosts)+j, topo.Cfg.CoreLink)
		f.corePorts = append(f.corePorts, p)
		f.toCore = append(f.toCore, deliverTo(core, c))
		netsim.Connect(core.Port(c), p)
	}
	return f, nil
}

// NodeID implements netsim.Device.
func (f *Fabric) NodeID() packet.NodeID { return fabricNodeID(f.cluster) }

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// MacroState returns the fabric's current congestion regime.
func (f *Fabric) MacroState() macro.State { return f.cls.Current() }

// Receive implements netsim.Device: every arriving packet is one boundary
// traversal, resolved by a single model prediction and (at most) a single
// scheduled delivery event.
func (f *Fabric) Receive(pkt *packet.Packet, inPort int) {
	if inPort < len(f.hostPorts) {
		f.fromHost(pkt)
		return
	}
	f.fromCore(pkt, inPort-len(f.hostPorts))
}

// fromHost handles a packet a cluster server sent upward.
func (f *Fabric) fromHost(pkt *packet.Packet) {
	now := f.kernel.Now()
	dstInside := int(pkt.Dst) >= 0 && int(pkt.Dst) < len(f.topo.Hosts) &&
		f.topo.ClusterOf(pkt.Dst) == f.cluster

	st := f.macroFeature()
	drop, lat := f.predict(f.egress, now, pkt, st)
	f.cls.Observe(now, lat.Seconds(), drop)

	if dstInside {
		// Intra-cluster traffic through an approximated fabric. The hybrid
		// workload normally elides it (§6.2); when it does occur, one
		// prediction covers the whole ToR->Agg->ToR transit.
		f.stats.IntraPackets++
		if drop {
			f.stats.EgressDrops++
			return
		}
		f.deliverToHost(pkt, now+lat)
		return
	}

	f.stats.EgressPackets++
	if drop {
		f.stats.EgressDrops++
		return
	}
	path := f.topo.PathFor(pkt.Src, pkt.Dst, pkt.FlowID)
	if path.Core < 0 {
		// Destination outside the topology: nothing to deliver to.
		return
	}
	coreIdx := f.topo.CoreIndex(path.Core)
	at := now + lat
	// Conflict resolution at the fabric->core boundary.
	ser := f.corePorts[coreIdx].Config().SerializationDelay(pkt.Size())
	if at < f.coreFree[coreIdx] {
		at = f.coreFree[coreIdx]
		f.stats.Conflicts++
	}
	f.coreFree[coreIdx] = at + ser

	pkt.Hops += 2 // the elided ToR and Agg hops
	pkt.TTL -= 2
	f.kernel.AtCtxFn(at, 0, 0, pkt, f.toCore[coreIdx])
}

// fromCore handles a packet a core switch forwarded down into the cluster.
func (f *Fabric) fromCore(pkt *packet.Packet, _ int) {
	now := f.kernel.Now()
	if int(pkt.Dst) < 0 || int(pkt.Dst) >= len(f.topo.Hosts) ||
		f.topo.ClusterOf(pkt.Dst) != f.cluster {
		// Misrouted: a real fabric would blackhole it just the same.
		return
	}
	f.stats.IngressPackets++
	st := f.macroFeature()
	drop, lat := f.predict(f.ingress, now, pkt, st)
	f.cls.Observe(now, lat.Seconds(), drop)
	if drop {
		f.stats.IngressDrops++
		return
	}
	f.deliverToHost(pkt, now+lat)
}

// deliverToHost schedules the single delivery event for an ingress (or
// intra-cluster) traversal, resolving schedule conflicts per host link.
func (f *Fabric) deliverToHost(pkt *packet.Packet, at des.Time) {
	local := int(pkt.Dst) - f.cluster*f.topo.Cfg.ToRsPerCluster*f.topo.Cfg.ServersPerToR
	ser := f.hostPorts[local].Config().SerializationDelay(pkt.Size())
	if at < f.hostFree[local] {
		at = f.hostFree[local]
		f.stats.Conflicts++
	}
	f.hostFree[local] = at + ser

	pkt.Hops += 2
	pkt.TTL -= 2
	f.kernel.AtCtxFn(at, 0, 0, pkt, f.toHost[local])
}
