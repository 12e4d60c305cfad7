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

// fixedBed builds a Clos of the given size with boundary b's side replaced
// by an untrained threshold-policy fabric (never drops; latency = the
// floor), so behavior is exactly predictable.
func fixedBed(t *testing.T, clusters int, b topology.Boundary, floor des.Time, noMacro bool) (*des.Kernel, *topology.Topology, *Fabric) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(clusters))
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(9))
	// Pin the untrained drop head hard negative so the Threshold policy
	// never drops: the fabric becomes a deterministic constant-latency box.
	m.DropHead.B[0] = -50
	eg := micro.NewPredictor(m, trace.Egress, topo, micro.Threshold, 1, floor)
	ing := micro.NewPredictor(m, trace.Ingress, topo, micro.Threshold, 2, floor)
	fab, err := Splice(topo, b, eg, ing, macro.Config{}, noMacro)
	if err != nil {
		t.Fatal(err)
	}
	return k, topo, fab
}

// rawBed replaces cluster 1's fabric of a 2-cluster Clos.
func rawBed(t *testing.T, floor des.Time) (*des.Kernel, *topology.Topology, *Fabric) {
	return fixedBed(t, 2, topology.Boundary{Cluster: 1}, floor, false)
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

// TestMisroutedPacketBlackholed hands a cluster fabric packets a real
// fabric would blackhole: nothing is delivered, nothing panics and nothing
// counts as a traversal. Port 0 is the first cut slot; the host edge
// follows the cut.
func TestMisroutedPacketBlackholed(t *testing.T) {
	cases := []struct {
		name string
		b    topology.Boundary
		pkt  packet.Packet
		port int
	}{
		// A cluster-0 destination arriving from a core at cluster 1's fabric.
		{"cluster/cut", topology.Boundary{Cluster: 1}, packet.Packet{Src: 8, Dst: 0}, 0},
		// No such host, sent from a host of the fabric.
		{"cluster/host_out_of_range", topology.Boundary{Cluster: 1}, packet.Packet{Src: 8, Dst: 9999}, -1},
		{"cluster/host_negative", topology.Boundary{Cluster: 1}, packet.Packet{Src: 8, Dst: -3}, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, topo, fab := fixedBed(t, 4, tc.b, 2*des.Microsecond, false)
			delivered := false
			for _, h := range topo.Hosts {
				h.OnReceive = func(*packet.Packet) { delivered = true }
			}
			port := tc.port
			if port < 0 {
				port = len(fab.cut.ports) // the first host-edge slot
			}
			pkt := tc.pkt
			pkt.FlowID, pkt.PayloadLen, pkt.TTL = 9, 10, 8
			fab.Receive(&pkt, port)
			k.RunAll()
			if delivered {
				t.Error("misrouted packet was delivered")
			}
			if s := fab.Stats(); s != (Stats{}) {
				t.Errorf("misrouted packet counted: %+v", s)
			}
		})
	}
}

// TestFabricTraversalDoesNotAllocate pins the allocation-free boundary path:
// every traversal kind, sent from host NICs (prediction, conflict
// resolution, the one delivery event and the packet's onward hops),
// allocates nothing.
func TestFabricTraversalDoesNotAllocate(t *testing.T) {
	sends := []packet.Packet{
		{Src: 8, Dst: 0, FlowID: 9},   // egress
		{Src: 0, Dst: 9, FlowID: 10},  // ingress
		{Src: 8, Dst: 12, FlowID: 11}, // intra
	}
	t.Run("cluster", func(t *testing.T) {
		k, topo, _ := fixedBed(t, 2, topology.Boundary{Cluster: 1}, 2*des.Microsecond, false)
		delivered := 0
		for _, p := range sends {
			topo.Hosts[p.Dst].OnReceive = func(*packet.Packet) { delivered++ }
		}
		pkts := make([]packet.Packet, len(sends))
		traverse := func() {
			for i, p := range sends {
				pkts[i] = packet.Packet{Src: p.Src, Dst: p.Dst, FlowID: p.FlowID, PayloadLen: 1000}
				topo.Hosts[p.Src].Send(&pkts[i])
			}
			k.RunAll()
		}
		if allocs := testing.AllocsPerRun(100, traverse); allocs != 0 {
			t.Errorf("%d traversals allocate %.1f objects, want 0", len(pkts), allocs)
		}
		if want := len(pkts) * 101; delivered != want {
			t.Errorf("%d deliveries, want %d", delivered, want)
		}
	})
}

func TestFabricNodeIDDistinct(t *testing.T) {
	for c := 0; c < 4; c++ {
		_, _, fab := fixedBed(t, 4, topology.Boundary{Cluster: c}, 0, false)
		if want := packet.NodeID(-(c + 1)); fab.NodeID() != want {
			t.Errorf("cluster %d fabric NodeID = %d, want %d", c, fab.NodeID(), want)
		}
	}
}

// TestFabricHostSlot checks the host-edge slot: a cluster fabric numbers
// its own hosts from 0.
func TestFabricHostSlot(t *testing.T) {
	_, _, fab := fixedBed(t, 4, topology.Boundary{Cluster: 2}, 0, false)
	for h, want := range map[packet.HostID]int{16: 0, 23: 7} {
		if got := fab.hostSlot(h); got != want {
			t.Errorf("cluster 2 hostSlot(%d) = %d, want %d", h, got, want)
		}
	}
}

func TestFabricDisableMacro(t *testing.T) {
	_, _, fab := fixedBed(t, 4, topology.Boundary{}, 4*des.Microsecond, true)
	// Heavy observations would normally move the state; pinned mode stays
	// Minimal in the feature it feeds predictors.
	for i := 0; i < 1000; i++ {
		fab.cls.Observe(des.Time(i)*des.Microsecond, 1e-3, i%2 == 0)
	}
	if got := fab.macroFeature(); got != macro.Minimal {
		t.Errorf("pinned macro feature = %v", got)
	}
}
