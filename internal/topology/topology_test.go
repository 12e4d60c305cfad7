package topology

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
)

func buildClos(t *testing.T, clusters int) (*des.Kernel, *Topology) {
	t.Helper()
	k := des.NewKernel()
	topo, err := Build(k, DefaultClosConfig(clusters))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return k, topo
}

func TestConfigCounts(t *testing.T) {
	cfg := DefaultClosConfig(4)
	if cfg.NumHosts() != 32 { // 4 clusters * 2 ToR * 4 servers
		t.Errorf("NumHosts = %d, want 32", cfg.NumHosts())
	}
	if cfg.NumToRs() != 8 || cfg.NumAggs() != 8 || cfg.NumCores() != 2 {
		t.Errorf("ToRs/Aggs/Cores = %d/%d/%d, want 8/8/2",
			cfg.NumToRs(), cfg.NumAggs(), cfg.NumCores())
	}
	ls := DefaultLeafSpineConfig(8)
	if ls.NumHosts() != 32 || ls.NumToRs() != 8 || ls.NumAggs() != 8 || ls.NumCores() != 0 {
		t.Errorf("leaf-spine counts wrong: %d/%d/%d/%d",
			ls.NumHosts(), ls.NumToRs(), ls.NumAggs(), ls.NumCores())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultClosConfig(2); c.ToRsPerCluster = 0; return c }(),
		func() Config { c := DefaultClosConfig(2); c.ServersPerToR = -1; return c }(),
		func() Config { c := DefaultClosConfig(2); c.CoresPerAgg = 0; return c }(),
		func() Config { c := DefaultLeafSpineConfig(4); c.Clusters = 2; return c }(),
		func() Config { c := DefaultClosConfig(2); c.HostLink.BandwidthBps = 0; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config", i)
		}
	}
	def := DefaultClosConfig(2)
	if err := def.Validate(); err != nil {
		t.Errorf("default Clos config rejected: %v", err)
	}
}

// send injects a packet from host src destined to dst and runs to quiescence.
func send(k *des.Kernel, topo *Topology, src, dst packet.HostID, flow uint64) (delivered *packet.Packet) {
	h := topo.Hosts[dst]
	h.Handler = func(p *packet.Packet) { delivered = p }
	topo.Hosts[src].Send(&packet.Packet{
		Src: src, Dst: dst, FlowID: flow, PayloadLen: 100,
	})
	k.RunAll()
	h.Handler = nil
	return delivered
}

func TestDeliverySameRack(t *testing.T) {
	k, topo := buildClos(t, 2)
	p := send(k, topo, 0, 1, 7)
	if p == nil {
		t.Fatal("same-rack packet not delivered")
	}
	if p.Hops != 1 {
		t.Errorf("same-rack hops = %d, want 1 (ToR only)", p.Hops)
	}
}

func TestDeliverySameClusterDifferentRack(t *testing.T) {
	k, topo := buildClos(t, 2)
	// Hosts 0 (ToR 0) and 4 (ToR 1) share cluster 0.
	p := send(k, topo, 0, 4, 7)
	if p == nil {
		t.Fatal("intra-cluster packet not delivered")
	}
	if p.Hops != 3 {
		t.Errorf("intra-cluster hops = %d, want 3 (ToR-Agg-ToR)", p.Hops)
	}
}

func TestDeliveryInterCluster(t *testing.T) {
	k, topo := buildClos(t, 2)
	// Host 0 in cluster 0, host 8 in cluster 1.
	p := send(k, topo, 0, 8, 7)
	if p == nil {
		t.Fatal("inter-cluster packet not delivered")
	}
	if p.Hops != 5 {
		t.Errorf("inter-cluster hops = %d, want 5 (ToR-Agg-Core-Agg-ToR)", p.Hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	k, topo := buildClos(t, 2)
	n := len(topo.Hosts)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if p := send(k, topo, packet.HostID(s), packet.HostID(d), uint64(s*n+d)); p == nil {
				t.Fatalf("no delivery %d -> %d", s, d)
			}
		}
	}
}

func TestLeafSpineAllPairs(t *testing.T) {
	k := des.NewKernel()
	topo, err := Build(k, DefaultLeafSpineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	n := len(topo.Hosts)
	for s := 0; s < n; s += 3 {
		for d := 0; d < n; d += 3 {
			if s == d {
				continue
			}
			p := send(k, topo, packet.HostID(s), packet.HostID(d), uint64(s*n+d))
			if p == nil {
				t.Fatalf("no delivery %d -> %d", s, d)
			}
			wantHops := int8(3) // leaf-spine-leaf
			if topo.ToROf(packet.HostID(s)) == topo.ToROf(packet.HostID(d)) {
				wantHops = 1
			}
			if p.Hops != wantHops {
				t.Errorf("%d->%d hops = %d, want %d", s, d, p.Hops, wantHops)
			}
		}
	}
}

func TestClusterMembershipHelpers(t *testing.T) {
	_, topo := buildClos(t, 4)
	if got := topo.ClusterOf(0); got != 0 {
		t.Errorf("ClusterOf(0) = %d", got)
	}
	if got := topo.ClusterOf(8); got != 1 {
		t.Errorf("ClusterOf(8) = %d, want 1", got)
	}
	if got := topo.ToROf(5); got != 1 {
		t.Errorf("ToROf(5) = %d, want 1", got)
	}
	hc := topo.HostsInCluster(1)
	if len(hc) != 8 || hc[0].ID() != 8 || hc[7].ID() != 15 {
		t.Errorf("HostsInCluster(1) wrong: len=%d", len(hc))
	}
	if len(topo.ToRsInCluster(2)) != 2 || len(topo.AggsInCluster(2)) != 2 {
		t.Error("per-cluster switch slices wrong size")
	}
}

// TestBoundaryCutSlotFacesCore pins the layout a Boundary relies on: cut
// slot k of cluster c is core k's port c, wired to the cluster's agg at
// core k's aggregation position; and Inside picks that one cluster.
func TestBoundaryCutSlotFacesCore(t *testing.T) {
	cfg := DefaultClosConfig(3)
	cfg.CoresPerAgg = 2
	topo, err := Build(des.NewKernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Clusters; c++ {
		for k, core := range topo.Cores {
			agg, port := topo.AggsInCluster(c)[k/cfg.CoresPerAgg], cfg.ToRsPerCluster+k%cfg.CoresPerAgg
			dev, in := core.Port(c).Peer()
			if dev != netsim.Device(agg) || in != port {
				t.Errorf("cluster %d cut slot %d reaches %v port %d, want agg %d port %d",
					c, k, dev.NodeID(), in, agg.NodeID(), port)
			}
		}
	}
	for c, want := range []bool{false, true, false} {
		if got := (Boundary{Cluster: 1}).Inside(c); got != want {
			t.Errorf("cluster boundary at 1: Inside(%d) = %v", c, got)
		}
	}
}

// TestPathForMatchesActualTraversal verifies that the path enumeration used
// for model features agrees with what packets actually do.
func TestPathForMatchesActualTraversal(t *testing.T) {
	k, topo := buildClos(t, 4)
	for flow := uint64(1); flow <= 50; flow++ {
		src := packet.HostID(flow % 8)    // cluster 0
		dst := packet.HostID(16 + flow%8) // cluster 2
		want := topo.PathFor(src, dst, flow)

		var visited []packet.NodeID
		allSwitches := append(append(append([]*netsim.Switch{}, topo.ToRs...),
			topo.Aggs...), topo.Cores...)
		for _, sw := range allSwitches {
			sw := sw
			sw.OnReceive = func(p *packet.Packet, in int) {
				if p.FlowID == flow {
					visited = append(visited, sw.NodeID())
				}
			}
		}
		if p := send(k, topo, src, dst, flow); p == nil {
			t.Fatalf("flow %d not delivered", flow)
		}
		for _, sw := range allSwitches {
			sw.OnReceive = nil
		}
		wantSeq := []packet.NodeID{want.SrcToR, want.SrcAgg, want.Core, want.DstAgg, want.DstToR}
		if len(visited) != len(wantSeq) {
			t.Fatalf("flow %d visited %v, want %v", flow, visited, wantSeq)
		}
		for i := range wantSeq {
			if visited[i] != wantSeq[i] {
				t.Fatalf("flow %d visited %v, want %v", flow, visited, wantSeq)
			}
		}
	}
}

func TestPathForSameRack(t *testing.T) {
	_, topo := buildClos(t, 2)
	p := topo.PathFor(0, 1, 9)
	if p.SrcToR != p.DstToR {
		t.Error("same-rack path must share the ToR")
	}
	if p.SrcAgg != -1 || p.Core != -1 || p.DstAgg != -1 {
		t.Errorf("same-rack path has fabric hops: %+v", p)
	}
}

func TestPathForIntraCluster(t *testing.T) {
	_, topo := buildClos(t, 2)
	p := topo.PathFor(0, 4, 9)
	if p.Core != -1 {
		t.Error("intra-cluster path must not cross a core")
	}
	if p.SrcAgg == -1 || p.SrcAgg != p.DstAgg {
		t.Errorf("intra-cluster path should bounce off one agg: %+v", p)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	_, topo := buildClos(t, 2)
	counts := map[packet.NodeID]int{}
	for flow := uint64(0); flow < 200; flow++ {
		p := topo.PathFor(0, 8, flow)
		counts[p.SrcAgg]++
	}
	if len(counts) != 2 {
		t.Fatalf("ECMP used %d of 2 aggs", len(counts))
	}
	for agg, n := range counts {
		if n < 60 {
			t.Errorf("agg %d got %d of 200 flows; ECMP is skewed", agg, n)
		}
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	_, topo := buildClos(t, 2)
	for flow := uint64(0); flow < 20; flow++ {
		a := topo.PathFor(3, 12, flow)
		b := topo.PathFor(3, 12, flow)
		if a != b {
			t.Fatalf("flow %d path not deterministic", flow)
		}
	}
}

func TestUnroutableDstDropped(t *testing.T) {
	k, topo := buildClos(t, 2)
	topo.Hosts[0].Send(&packet.Packet{Src: 0, Dst: 9999, PayloadLen: 10})
	k.RunAll()
	if topo.ToRs[0].RouteDrops != 1 {
		t.Errorf("RouteDrops = %d, want 1", topo.ToRs[0].RouteDrops)
	}
}

func BenchmarkRouteInterCluster(b *testing.B) {
	k := des.NewKernel()
	topo, _ := Build(k, DefaultClosConfig(16))
	p := &packet.Packet{Src: 0, Dst: 100, FlowID: 42}
	sw := topo.Aggs[0].NodeID()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.Route(sw, p)
	}
}

func BenchmarkBuildClos16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		if _, err := Build(k, DefaultClosConfig(16)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFaultedRouteRehashesOverSurvivors pins the failure-aware pick: once a
// ToR uplink and an agg-core link are detected down, both switches rehash
// flows over their surviving equal-cost set in ascending order, and the
// faulted route allocates nothing.
func TestFaultedRouteRehashesOverSurvivors(t *testing.T) {
	cfg := DefaultClosConfig(2)
	cfg.AggsPerCluster, cfg.CoresPerAgg = 3, 3
	sched, err := ParseFaults(cfg, "link:tor0-agg1@1us,detect=1us;link:agg0-core1@1us,detect=1us")
	if err != nil {
		t.Fatal(err)
	}
	now := des.Millisecond
	tor, agg, _ := cfg.Bases()
	survivors := []int{0, 2} // position 1 is down at both switches
	dst := packet.HostID(cfg.NumHosts() - 1)
	for id := uint64(0); id < 200; id++ {
		p := &packet.Packet{Src: 0, Dst: dst, FlowID: id}
		for _, hop := range []struct {
			sw   packet.NodeID
			base int
		}{{tor, cfg.ServersPerToR}, {agg, cfg.ToRsPerCluster}} {
			want := hop.base + survivors[ecmpHash(hop.sw, p, cfg.ECMPSeed)%2]
			if got, ok := RouteOn(&cfg, sched, now, hop.sw, p); !ok || got != want {
				t.Fatalf("flow %d at switch %d: port %d (ok=%v), want %d", id, hop.sw, got, ok, want)
			}
		}
	}
	p := &packet.Packet{Src: 0, Dst: dst, FlowID: 7}
	if allocs := testing.AllocsPerRun(100, func() { RouteOn(&cfg, sched, now, tor, p) }); allocs != 0 {
		t.Errorf("faulted RouteOn allocates %v times per call", allocs)
	}
}
