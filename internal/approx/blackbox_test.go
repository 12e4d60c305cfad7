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

// bbBed builds a 4-cluster topology with everything beyond cluster 1's aggs
// replaced by a deterministic (never-drop, floor-latency) black box.
func bbBed(t *testing.T, real int) (*des.Kernel, *topology.Topology, *BlackBox) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(4))
	m.DropHead.B[0] = -50
	out := micro.NewPredictor(m, trace.Egress, topo, micro.Threshold, 1, 4*des.Microsecond)
	in := micro.NewPredictor(m, trace.Ingress, topo, micro.Threshold, 2, 4*des.Microsecond)
	bb, err := SpliceWholeNetwork(topo, real, out, in, macro.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k, topo, bb
}

func TestBlackBoxValidation(t *testing.T) {
	k := des.NewKernel()
	topo, _ := topology.Build(k, topology.DefaultClosConfig(2))
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(1))
	p := micro.NewPredictor(m, trace.Egress, topo, micro.Sample, 1, 0)
	if _, err := SpliceWholeNetwork(topo, 9, p, p, macro.Config{}); err == nil {
		t.Error("out-of-range real cluster accepted")
	}
	if _, err := SpliceWholeNetwork(topo, 0, nil, p, macro.Config{}); err == nil {
		t.Error("nil predictor accepted")
	}
	ls, _ := topology.Build(des.NewKernel(), topology.DefaultLeafSpineConfig(4))
	if _, err := SpliceWholeNetwork(ls, 0, p, p, macro.Config{}); err == nil {
		t.Error("leaf-spine accepted")
	}
}

func TestBlackBoxNodeIDDistinct(t *testing.T) {
	_, _, bb := bbBed(t, 0)
	if bb.NodeID() >= 0 {
		t.Errorf("black box NodeID %d collides with topology IDs", bb.NodeID())
	}
}

func TestBlackBoxOutboundDelivery(t *testing.T) {
	// Real cluster is 1 (hosts 8..15): host 8 sends to remote host 0.
	k, topo, bb := bbBed(t, 1)
	var got *packet.Packet
	var at des.Time
	topo.Hosts[0].OnReceive = func(p *packet.Packet) { got, at = p, k.Now() }
	topo.Hosts[8].Send(&packet.Packet{Src: 8, Dst: 0, FlowID: 1, PayloadLen: 100})
	k.RunAll()
	if got == nil {
		t.Fatal("outbound packet not delivered")
	}
	// Path: host->ToR->agg (real), then one predicted hop. Total hop count
	// must equal the 5 a full path would show.
	if got.Hops != 5 {
		t.Errorf("hops = %d, want 5", got.Hops)
	}
	if at <= 0 {
		t.Error("delivery at time zero")
	}
	if s := bb.Stats(); s.EgressPackets != 1 || s.IngressPackets != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBlackBoxInboundDelivery(t *testing.T) {
	k, topo, bb := bbBed(t, 1)
	var got *packet.Packet
	topo.Hosts[8].OnReceive = func(p *packet.Packet) { got = p }
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 8, FlowID: 2, PayloadLen: 100})
	k.RunAll()
	if got == nil {
		t.Fatal("inbound packet not delivered")
	}
	if got.Hops != 5 {
		t.Errorf("hops = %d, want 5", got.Hops)
	}
	if s := bb.Stats(); s.IngressPackets != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBlackBoxRemoteToRemote(t *testing.T) {
	// Host 0 (cluster 0) -> host 24 (cluster 3), with real cluster 1:
	// wholly inside the box, one prediction end to end.
	k, topo, bb := bbBed(t, 1)
	got := false
	topo.Hosts[24].OnReceive = func(p *packet.Packet) { got = p.FlowID == 3 }
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 24, FlowID: 3, PayloadLen: 100})
	k.RunAll()
	if !got {
		t.Fatal("remote-to-remote packet not delivered")
	}
	if s := bb.Stats(); s.IntraPackets != 1 || s.IngressPackets != 0 || s.EgressPackets != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBlackBoxHostIndexSkipsRealCluster(t *testing.T) {
	_, _, bb := bbBed(t, 1)
	// Remote hosts are clusters 0, 2, 3: IDs 0..7, 16..31.
	cases := map[packet.HostID]int{0: 0, 7: 7, 16: 8, 31: 23}
	for h, want := range cases {
		if got := bb.hostIndex(h); got != want {
			t.Errorf("hostIndex(%d) = %d, want %d", h, got, want)
		}
	}
}

func TestBlackBoxMisroutedBlackholed(t *testing.T) {
	k, topo, bb := bbBed(t, 1)
	delivered := false
	for _, h := range topo.Hosts {
		h := h
		h.OnReceive = func(*packet.Packet) { delivered = true }
	}
	// Hand the box a packet for a real-cluster host on an agg port (the
	// real cluster never routes its own hosts outward, so this is a
	// misroute) and one for a nonexistent destination.
	bb.Receive(&packet.Packet{Src: 0, Dst: 8, FlowID: 9, PayloadLen: 10, TTL: 8}, 0)
	bb.Receive(&packet.Packet{Src: 0, Dst: 9999, FlowID: 10, PayloadLen: 10, TTL: 8}, 0)
	k.RunAll()
	if delivered {
		t.Error("misrouted packet delivered")
	}
}

func TestBlackBoxDisableMacro(t *testing.T) {
	_, _, bb := bbBed(t, 0)
	bb.DisableMacro()
	// Heavy observations would normally move the state; pinned mode stays
	// Minimal in the feature it feeds predictors.
	for i := 0; i < 1000; i++ {
		bb.cls.Observe(des.Time(i)*des.Microsecond, 1e-3, i%2 == 0)
	}
	if got := bb.macroFeature(); got != macro.Minimal {
		t.Errorf("pinned macro feature = %v", got)
	}
}

func TestBlackBoxTCPFullTransfer(t *testing.T) {
	k, topo, _ := bbBed(t, 1)
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	done := 0
	stacks[8].StartFlow(0, 60_000, 21, func(tcp.FlowResult) { done++ })  // out of real
	stacks[16].StartFlow(9, 60_000, 22, func(tcp.FlowResult) { done++ }) // into real
	k.Run(des.Second)
	if done != 2 {
		t.Fatalf("%d of 2 TCP flows completed through the black box", done)
	}
}

// TestBlackBoxTraversalDoesNotAllocate is the black-box twin of
// TestFabricTraversalDoesNotAllocate: outbound, inbound and remote-to-remote
// packets, sent from host NICs, allocate nothing end to end.
func TestBlackBoxTraversalDoesNotAllocate(t *testing.T) {
	k, topo, _ := bbBed(t, 1)
	delivered := 0
	for _, h := range []int{0, 8, 24} {
		topo.Hosts[h].OnReceive = func(*packet.Packet) { delivered++ }
	}
	var out, in, remote packet.Packet
	traverse := func() {
		out = packet.Packet{Src: 8, Dst: 0, FlowID: 1, PayloadLen: 100}
		in = packet.Packet{Src: 0, Dst: 8, FlowID: 2, PayloadLen: 100}
		remote = packet.Packet{Src: 16, Dst: 24, FlowID: 3, PayloadLen: 100}
		topo.Hosts[8].Send(&out)
		topo.Hosts[0].Send(&in)
		topo.Hosts[16].Send(&remote)
		k.RunAll()
	}
	if allocs := testing.AllocsPerRun(100, traverse); allocs != 0 {
		t.Errorf("three traversals allocate %.1f objects, want 0", allocs)
	}
	if delivered != 3*101 {
		t.Errorf("%d deliveries, want %d", delivered, 3*101)
	}
}
