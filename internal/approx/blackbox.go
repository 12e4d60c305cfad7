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

// BlackBox is the §7 limit of the approximation idea: a single module
// replacing *everything* beyond one real cluster's aggregation switches —
// all core switches and every other cluster's fabric. Remote hosts keep
// their full TCP stacks (the paper's §5 choice: stacks are cheaper to run
// than to learn); only the switching between the real cluster's aggs and
// those hosts is predicted.
//
// The paper flags this as an open question ("training that black box to
// approximate such a large collection of machines is not trivial"); the
// blackbox figure harness quantifies exactly what is lost relative to
// per-cluster fabrics.
type BlackBox struct {
	kernel *des.Kernel
	topo   *topology.Topology
	real   int

	outbound *micro.Predictor // real cluster -> remote host
	inbound  *micro.Predictor // remote host -> real cluster
	cls      *macro.Classifier
	noMacro  bool

	aggPorts  []*netsim.Port // attachment per (real agg, core uplink)
	hostPorts []*netsim.Port // attachment per remote host

	// Delivery handlers, one per attachment point (see deliverTo).
	toAgg  []func(ctx any)
	toHost []func(ctx any)

	hostFree []des.Time // conflict resolution per remote host
	aggFree  []des.Time // conflict resolution per real-agg uplink

	stats Stats

	// Model-inference observability, mirroring Fabric.
	invocations metrics.Counter
	predNanos   metrics.Histogram
}

// predict times one micro-model invocation for either direction.
func (b *BlackBox) predict(p *micro.Predictor, now des.Time, pkt *packet.Packet,
	st macro.State) (drop bool, lat des.Time) {

	t0 := time.Now()
	drop, lat = p.Predict(now, pkt.Src, pkt.Dst, pkt.FlowID, pkt.Size(), pkt.IsAck(), st)
	b.predNanos.Observe(uint64(time.Since(t0)))
	b.invocations.Inc()
	return drop, lat
}

// CollectMetrics implements metrics.Collector.
func (b *BlackBox) CollectMetrics(e *metrics.Emitter) {
	e.Counter("egress_packets", b.stats.EgressPackets)
	e.Counter("ingress_packets", b.stats.IngressPackets)
	e.Counter("intra_packets", b.stats.IntraPackets)
	e.Counter("egress_drops", b.stats.EgressDrops)
	e.Counter("ingress_drops", b.stats.IngressDrops)
	e.Counter("conflicts", b.stats.Conflicts)
	e.Counter("model_invocations", b.invocations.Value())
	e.Histogram("prediction_wall_ns", &b.predNanos)
}

// SpliceWholeNetwork rewires topo so that everything beyond cluster real's
// aggregation switches is replaced by one black box driven by the given
// predictors. Remote clusters' switches and all cores are orphaned.
func SpliceWholeNetwork(topo *topology.Topology, real int,
	outbound, inbound *micro.Predictor, mcfg macro.Config) (*BlackBox, error) {

	if topo.Cfg.Kind != topology.ThreeTierClos {
		return nil, fmt.Errorf("approx: whole-network black box needs a 3-tier Clos")
	}
	if real < 0 || real >= topo.Cfg.Clusters {
		return nil, fmt.Errorf("approx: real cluster %d out of range", real)
	}
	if outbound == nil || inbound == nil {
		return nil, fmt.Errorf("approx: both direction predictors are required")
	}
	bb := &BlackBox{
		kernel:   topo.Kernel,
		topo:     topo,
		real:     real,
		outbound: outbound,
		inbound:  inbound,
		cls:      macro.New(mcfg),
	}
	// Attach the real cluster's agg core-facing uplinks.
	for _, agg := range topo.AggsInCluster(real) {
		for j := 0; j < topo.Cfg.CoresPerAgg; j++ {
			up := agg.Port(topo.CoreFacingAggPort(j))
			p := netsim.NewPort(topo.Kernel, bb, len(bb.aggPorts), topo.Cfg.CoreLink)
			bb.aggPorts = append(bb.aggPorts, p)
			bb.toAgg = append(bb.toAgg, deliverTo(agg, topo.CoreFacingAggPort(j)))
			netsim.Connect(up, p)
		}
	}
	bb.aggFree = make([]des.Time, len(bb.aggPorts))
	// Attach every remote host.
	for c := 0; c < topo.Cfg.Clusters; c++ {
		if c == real {
			continue
		}
		for _, h := range topo.HostsInCluster(c) {
			p := netsim.NewPort(topo.Kernel, bb,
				len(bb.aggPorts)+len(bb.hostPorts), topo.Cfg.HostLink)
			bb.hostPorts = append(bb.hostPorts, p)
			bb.hostFree = append(bb.hostFree, 0)
			bb.toHost = append(bb.toHost, deliverTo(h, 0))
			netsim.Connect(h.NIC(), p)
		}
	}
	return bb, nil
}

// NodeID implements netsim.Device.
func (b *BlackBox) NodeID() packet.NodeID { return -1_000_000 }

// Stats returns a snapshot of the box's counters (Egress = outbound from
// the real cluster, Ingress = inbound to it).
func (b *BlackBox) Stats() Stats { return b.stats }

// DisableMacro pins the macro feature to Minimal (ablation arm).
func (b *BlackBox) DisableMacro() { b.noMacro = true }

func (b *BlackBox) macroFeature() macro.State {
	if b.noMacro {
		return macro.Minimal
	}
	return b.cls.Current()
}

// hostIndex maps a remote HostID to its position in hostPorts/hostFree.
func (b *BlackBox) hostIndex(h packet.HostID) int {
	per := b.topo.Cfg.ToRsPerCluster * b.topo.Cfg.ServersPerToR
	idx := int(h)
	if int(h) >= (b.real+1)*per {
		idx -= per // skip over the real cluster's block
	}
	return idx
}

func (b *BlackBox) inRealCluster(h packet.HostID) bool {
	return int(h) >= 0 && int(h) < len(b.topo.Hosts) && b.topo.ClusterOf(h) == b.real
}

// Receive implements netsim.Device.
func (b *BlackBox) Receive(pkt *packet.Packet, inPort int) {
	if inPort < len(b.aggPorts) {
		b.fromRealCluster(pkt)
		return
	}
	b.fromRemoteHost(pkt)
}

// fromRealCluster handles outbound packets (real cluster -> remote host).
func (b *BlackBox) fromRealCluster(pkt *packet.Packet) {
	now := b.kernel.Now()
	if b.inRealCluster(pkt.Dst) || int(pkt.Dst) < 0 || int(pkt.Dst) >= len(b.topo.Hosts) {
		return // misrouted: blackhole, as the real region would
	}
	b.stats.EgressPackets++
	st := b.macroFeature()
	drop, lat := b.predict(b.outbound, now, pkt, st)
	b.cls.Observe(now, lat.Seconds(), drop)
	if drop {
		b.stats.EgressDrops++
		return
	}
	local := b.hostIndex(pkt.Dst)
	at := now + lat
	ser := b.hostPorts[local].Config().SerializationDelay(pkt.Size())
	if at < b.hostFree[local] {
		at = b.hostFree[local]
		b.stats.Conflicts++
	}
	b.hostFree[local] = at + ser

	pkt.Hops += 3 // elided core + remote agg + remote ToR
	pkt.TTL -= 3
	b.kernel.AtCtxFn(at, 0, 0, pkt, b.toHost[local])
}

// fromRemoteHost handles inbound packets (remote host -> real cluster) and
// remote-to-remote traffic (one prediction end to end; normally elided from
// the workload).
func (b *BlackBox) fromRemoteHost(pkt *packet.Packet) {
	now := b.kernel.Now()
	if int(pkt.Dst) < 0 || int(pkt.Dst) >= len(b.topo.Hosts) {
		return
	}
	st := b.macroFeature()
	drop, lat := b.predict(b.inbound, now, pkt, st)
	b.cls.Observe(now, lat.Seconds(), drop)

	if !b.inRealCluster(pkt.Dst) {
		// Remote <-> remote: stays inside the box.
		b.stats.IntraPackets++
		if drop {
			b.stats.IngressDrops++
			return
		}
		local := b.hostIndex(pkt.Dst)
		at := now + lat
		ser := b.hostPorts[local].Config().SerializationDelay(pkt.Size())
		if at < b.hostFree[local] {
			at = b.hostFree[local]
			b.stats.Conflicts++
		}
		b.hostFree[local] = at + ser
		pkt.Hops += 5
		pkt.TTL -= 5
		b.kernel.AtCtxFn(at, 0, 0, pkt, b.toHost[local])
		return
	}

	b.stats.IngressPackets++
	if drop {
		b.stats.IngressDrops++
		return
	}
	// Deliver into the real cluster's agg on its core-facing port, chosen
	// by the same deterministic path arithmetic the routing uses.
	path := b.topo.PathFor(pkt.Src, pkt.Dst, pkt.FlowID)
	if path.DstAgg < 0 {
		return
	}
	aggIdx := b.topo.AggIndex(path.DstAgg)
	aggPos := aggIdx % b.topo.Cfg.AggsPerCluster
	corePick := 0
	if path.Core >= 0 {
		corePick = b.topo.CoreIndex(path.Core) % b.topo.Cfg.CoresPerAgg
	}
	slot := aggPos*b.topo.Cfg.CoresPerAgg + corePick

	at := now + lat
	ser := b.aggPorts[slot].Config().SerializationDelay(pkt.Size())
	if at < b.aggFree[slot] {
		at = b.aggFree[slot]
		b.stats.Conflicts++
	}
	b.aggFree[slot] = at + ser

	pkt.Hops += 3 // elided remote ToR + remote agg + core
	pkt.TTL -= 3
	b.kernel.AtCtxFn(at, 0, 0, pkt, b.toAgg[slot])
}
