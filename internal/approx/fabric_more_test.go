package approx

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/micro"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// rawBed builds a 2-cluster topology with an untrained threshold-policy
// fabric on cluster 1 (never drops; latency = the floor), so behavior is
// exactly predictable.
func rawBed(t *testing.T, floor des.Time) (*des.Kernel, *topology.Topology, *Fabric) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(9))
	// Pin the untrained drop head hard negative so the Threshold policy
	// never drops: the fabric becomes a deterministic constant-latency box.
	m.DropHead.B[0] = -50
	eg := micro.NewPredictor(m, trace.Egress, topo, micro.Threshold, 1, floor)
	ing := micro.NewPredictor(m, trace.Ingress, topo, micro.Threshold, 2, floor)
	fab, err := Splice(topo, 1, eg, ing, macro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k, topo, fab
}

func TestFabricRespectsLatencyFloor(t *testing.T) {
	const floor = 7 * des.Microsecond
	k, topo, _ := rawBed(t, floor)
	// Raw packet from cluster-0 host 0 into cluster-1 host 8: it crosses
	// the real half (host->ToR->agg->core) then the fabric. Time the
	// core->host segment via the core tap and host delivery.
	var coreAt, hostAt des.Time
	topo.Cores[0].OnReceive = func(p *packet.Packet, _ int) {
		if p.FlowID == 1 && coreAt == 0 {
			coreAt = k.Now()
		}
	}
	topo.Cores[1].OnReceive = func(p *packet.Packet, _ int) {
		if p.FlowID == 1 && coreAt == 0 {
			coreAt = k.Now()
		}
	}
	topo.Hosts[8].OnReceive = func(p *packet.Packet) {
		if p.FlowID == 1 && hostAt == 0 {
			hostAt = k.Now()
		}
	}
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 8, FlowID: 1, PayloadLen: 100})
	k.RunAll()
	if coreAt == 0 || hostAt == 0 {
		t.Fatal("packet did not traverse core and fabric")
	}
	// Ingress fabric latency (arrival at fabric ~ core tx + core->fabric
	// link) must be at least the floor; total core->host must exceed it.
	if hostAt-coreAt < floor {
		t.Errorf("core->host took %v, below the %v floor", hostAt-coreAt, floor)
	}
}

func TestFabricHopAccounting(t *testing.T) {
	k, topo, _ := rawBed(t, 2*des.Microsecond)
	var delivered *packet.Packet
	topo.Hosts[8].OnReceive = func(p *packet.Packet) { delivered = p }
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 8, FlowID: 3, PayloadLen: 100})
	k.RunAll()
	if delivered == nil {
		t.Fatal("not delivered")
	}
	// Full path would be 5 switch hops; the fabric emulates its elided
	// ToR/agg hops, so the count must match a full traversal.
	if delivered.Hops != 5 {
		t.Errorf("hops = %d through approx fabric, want 5", delivered.Hops)
	}
	if delivered.TTL != 64-5 {
		t.Errorf("TTL = %d, want %d", delivered.TTL, 64-5)
	}
}

func TestFabricStatsDirections(t *testing.T) {
	k, topo, fab := rawBed(t, 2*des.Microsecond)
	// One raw packet each way.
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 8, FlowID: 4, PayloadLen: 10})
	topo.Hosts[8].Send(&packet.Packet{Src: 8, Dst: 0, FlowID: 5, PayloadLen: 10})
	k.RunAll()
	s := fab.Stats()
	if s.IngressPackets != 1 {
		t.Errorf("IngressPackets = %d, want 1", s.IngressPackets)
	}
	if s.EgressPackets != 1 {
		t.Errorf("EgressPackets = %d, want 1", s.EgressPackets)
	}
	if s.IntraPackets != 0 {
		t.Errorf("IntraPackets = %d, want 0", s.IntraPackets)
	}
}

func TestFabricIntraClusterFallback(t *testing.T) {
	// Traffic between two hosts of the approximated cluster still works
	// (one prediction end to end), even though hybrid workloads elide it.
	k, topo, fab := rawBed(t, 2*des.Microsecond)
	got := false
	topo.Hosts[9].OnReceive = func(p *packet.Packet) { got = p.FlowID == 6 }
	topo.Hosts[8].Send(&packet.Packet{Src: 8, Dst: 9, FlowID: 6, PayloadLen: 10})
	k.RunAll()
	if !got {
		t.Fatal("intra-cluster packet not delivered through fabric")
	}
	if fab.Stats().IntraPackets != 1 {
		t.Errorf("IntraPackets = %d, want 1", fab.Stats().IntraPackets)
	}
}

func TestFabricWithTCPBidirectional(t *testing.T) {
	// Two simultaneous flows in opposite directions across the fabric.
	k, topo, _ := rawBed(t, 2*des.Microsecond)
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	done := 0
	stacks[0].StartFlow(8, 40_000, 11, func(tcp.FlowResult) { done++ })
	stacks[9].StartFlow(1, 40_000, 12, func(tcp.FlowResult) { done++ })
	k.Run(des.Second)
	if done != 2 {
		t.Fatalf("%d of 2 bidirectional flows completed", done)
	}
}

func TestMisroutedPacketBlackholed(t *testing.T) {
	k, topo, fab := rawBed(t, 2*des.Microsecond)
	// Hand the fabric a packet for a cluster-0 destination on a core port:
	// a real fabric would blackhole it, so must we (no panic, no delivery).
	got := false
	topo.Hosts[0].OnReceive = func(*packet.Packet) { got = true }
	hostPorts := topo.Cfg.ToRsPerCluster * topo.Cfg.ServersPerToR
	fab.Receive(&packet.Packet{Src: 8, Dst: 0, FlowID: 9, PayloadLen: 10, TTL: 8}, hostPorts)
	k.RunAll()
	if got {
		t.Error("misrouted packet was delivered")
	}
	if fab.Stats().IngressPackets != 0 {
		t.Error("misrouted packet counted as a traversal")
	}
}

// TestFabricTraversalDoesNotAllocate pins the allocation-free boundary path:
// a traversal in each direction (prediction, conflict resolution, the one
// delivery event and the packet's onward hops) allocates nothing.
func TestFabricTraversalDoesNotAllocate(t *testing.T) {
	k, topo, fab := rawBed(t, 2*des.Microsecond)
	delivered := 0
	topo.Hosts[0].OnReceive = func(*packet.Packet) { delivered++ }
	topo.Hosts[9].OnReceive = func(*packet.Packet) { delivered++ }
	hostPorts := topo.Cfg.ToRsPerCluster * topo.Cfg.ServersPerToR
	var up, down packet.Packet
	traverse := func() {
		up = packet.Packet{Src: 8, Dst: 0, FlowID: 9, PayloadLen: 1000, TTL: 8}
		down = packet.Packet{Src: 0, Dst: 9, FlowID: 10, PayloadLen: 1000, TTL: 8}
		fab.Receive(&up, 0)           // egress: host 8 toward cluster 0
		fab.Receive(&down, hostPorts) // ingress: core 0 toward host 9
		k.RunAll()
	}
	if allocs := testing.AllocsPerRun(100, traverse); allocs != 0 {
		t.Errorf("one traversal each way allocates %.1f objects, want 0", allocs)
	}
	if delivered != 2*101 {
		t.Errorf("%d deliveries, want %d", delivered, 2*101)
	}
}
