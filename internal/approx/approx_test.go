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
	"approxsim/internal/traffic"
)

// trainPredictors captures a short 2-cluster full run and trains tiny
// predictors for both directions.
func trainPredictors(t *testing.T) (*topology.Topology, *micro.Predictor, *micro.Predictor) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	rec := trace.AttachBoundary(topo, topology.Boundary{})
	hosts := make([]packet.HostID, len(stacks))
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	specs, err := traffic.GenerateSpecs(traffic.Config{Load: 0.4, HostBandwidthBps: 10e9, Seed: 51}, hosts, 4*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		stack := stacks[sp.Src]
		k.At(sp.At, func() { stack.StartFlow(sp.Dst, sp.Size, sp.ID, nil) })
	}
	k.Run(6 * des.Millisecond)

	cfg := micro.TrainConfig{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 30, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	}
	eg, _, err := micro.Train(topo, trace.Egress, rec.Records, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ing, _, err := micro.Train(topo, trace.Ingress, rec.Records, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, eg, ing
}

// hybridBed builds a fresh 2-cluster topology with cluster 1 approximated
// and TCP stacks everywhere.
func hybridBed(t *testing.T, eg, ing *micro.Predictor) (*des.Kernel, *topology.Topology, []*tcp.Stack, *Fabric) {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	// Fresh predictor instances bound to the new topology, sharing weights.
	eg2 := micro.NewPredictor(eg.Model, trace.Egress, topo, micro.Sample, 7, eg.LatencyFloor)
	ing2 := micro.NewPredictor(ing.Model, trace.Ingress, topo, micro.Sample, 8, ing.LatencyFloor)
	fab, err := Splice(topo, topology.Boundary{Cluster: 1}, eg2, ing2, macro.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return k, topo, stacks, fab
}

func TestSpliceValidation(t *testing.T) {
	k := des.NewKernel()
	topo, _ := topology.Build(k, topology.DefaultClosConfig(2))
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(1))
	p := micro.NewPredictor(m, trace.Egress, topo, micro.Sample, 1, 0)
	ls, _ := topology.Build(des.NewKernel(), topology.DefaultLeafSpineConfig(4))
	t.Run("cluster", func(t *testing.T) {
		for _, c := range []int{-1, 2, 9} {
			if _, err := Splice(topo, topology.Boundary{Cluster: c}, p, p, macro.Config{}, false); err == nil {
				t.Errorf("out-of-range cluster %d accepted", c)
			}
		}
		b := topology.Boundary{}
		if _, err := Splice(topo, b, nil, p, macro.Config{}, false); err == nil {
			t.Error("nil egress predictor accepted")
		}
		if _, err := Splice(topo, b, p, nil, macro.Config{}, false); err == nil {
			t.Error("nil ingress predictor accepted")
		}
		if _, err := Splice(ls, b, p, p, macro.Config{}, false); err == nil {
			t.Error("leaf-spine splice accepted")
		}
	})
}

func TestFlowThroughApproxFabricCompletes(t *testing.T) {
	topo0, eg, ing := trainPredictors(t)
	_ = topo0
	k, _, stacks, fab := hybridBed(t, eg, ing)
	// Real-cluster host 0 -> approximated-cluster host 8.
	done := false
	stacks[0].StartFlow(8, 30_000, 1, func(tcp.FlowResult) { done = true })
	k.Run(des.Second)
	if !done {
		t.Fatal("flow into approximated cluster never completed")
	}
	s := fab.Stats()
	if s.IngressPackets == 0 {
		t.Error("no ingress traversals counted")
	}
	if s.EgressPackets == 0 {
		t.Error("no egress traversals (ACKs) counted")
	}
}

func TestReverseFlowCompletes(t *testing.T) {
	_, eg, ing := trainPredictors(t)
	k, _, stacks, _ := hybridBed(t, eg, ing)
	// Approximated-cluster host sends to real cluster.
	done := false
	stacks[8].StartFlow(0, 30_000, 1, func(tcp.FlowResult) { done = true })
	k.Run(des.Second)
	if !done {
		t.Fatal("flow out of approximated cluster never completed")
	}
}

func TestHybridUsesFarFewerEvents(t *testing.T) {
	_, eg, ing := trainPredictors(t)

	run := func(approximate bool) uint64 {
		k := des.NewKernel()
		topo, _ := topology.Build(k, topology.DefaultClosConfig(2))
		stacks := make([]*tcp.Stack, len(topo.Hosts))
		for i, h := range topo.Hosts {
			stacks[i] = tcp.NewStack(h, tcp.Config{})
		}
		if approximate {
			eg2 := micro.NewPredictor(eg.Model, trace.Egress, topo, micro.Sample, 7, eg.LatencyFloor)
			ing2 := micro.NewPredictor(ing.Model, trace.Ingress, topo, micro.Sample, 8, ing.LatencyFloor)
			if _, err := Splice(topo, topology.Boundary{Cluster: 1}, eg2, ing2, macro.Config{}, false); err != nil {
				t.Fatal(err)
			}
		}
		// Same cross-cluster workload either way.
		for i := 0; i < 4; i++ {
			stacks[i].StartFlow(packet.HostID(8+i), 100_000, uint64(i+1), nil)
			stacks[8+i].StartFlow(packet.HostID(i), 100_000, uint64(100+i), nil)
		}
		k.Run(des.Second)
		return k.Stats().Executed
	}

	full := run(false)
	hybrid := run(true)
	if hybrid >= full {
		t.Errorf("hybrid executed %d events, full %d: approximation saved nothing", hybrid, full)
	}
}

func TestConflictResolutionSerializes(t *testing.T) {
	// A predictor that always predicts the same latency forces schedule
	// conflicts whenever two packets arrive close together.
	k := des.NewKernel()
	topo, _ := topology.Build(k, topology.DefaultClosConfig(2))
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcp.Config{})
	}
	m := nn.NewModel(micro.FeatureDim, 4, 1, rng.New(3))
	// Untrained model with the drop head pinned negative: never drops,
	// constant-ish latency — plenty of collisions.
	m.DropHead.B[0] = -50
	eg := micro.NewPredictor(m, trace.Egress, topo, micro.Threshold, 1, 5*des.Microsecond)
	ing := micro.NewPredictor(m, trace.Ingress, topo, micro.Threshold, 2, 5*des.Microsecond)
	fab, err := Splice(topo, topology.Boundary{Cluster: 1}, eg, ing, macro.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		stacks[i].StartFlow(8, 50_000, uint64(i+1), nil) // all to one host
	}
	k.Run(des.Second)
	if fab.Stats().Conflicts == 0 {
		t.Error("no schedule conflicts resolved despite colliding deliveries")
	}
	// Deliveries at the contended host must be strictly serialized:
	// reconstruct from TCP completion (all flows done means ordering held).
	for i, s := range stacks[:8] {
		for _, r := range s.Results() {
			if !r.Completed {
				t.Errorf("flow from host %d incomplete under conflicts", i)
			}
		}
	}
}

func TestDeterministicHybridRun(t *testing.T) {
	_, eg, ing := trainPredictors(t)
	run := func() (uint64, uint64) {
		k, _, stacks, fab := hybridBed(t, eg, ing)
		for i := 0; i < 4; i++ {
			stacks[i].StartFlow(packet.HostID(8+i), 50_000, uint64(i+1), nil)
		}
		k.Run(des.Second)
		return k.Stats().Executed, fab.Stats().EgressPackets + fab.Stats().IngressPackets
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("hybrid run not deterministic: (%d,%d) vs (%d,%d)", e1, t1, e2, t2)
	}
}

func TestMacroStateEvolves(t *testing.T) {
	_, eg, ing := trainPredictors(t)
	k, _, stacks, fab := hybridBed(t, eg, ing)
	if fab.MacroState() != macro.Minimal {
		t.Errorf("initial macro state %v", fab.MacroState())
	}
	for i := 0; i < 6; i++ {
		stacks[i].StartFlow(packet.HostID(8+i%4), 200_000, uint64(i+1), nil)
	}
	k.Run(des.Second)
	// We only require that the classifier ran; the resulting state depends
	// on the (tiny) model's predictions.
	s := fab.Stats()
	if s.IngressPackets+s.EgressPackets == 0 {
		t.Fatal("fabric saw no traffic")
	}
}

func TestOrphanedSwitchesStayIdle(t *testing.T) {
	_, eg, ing := trainPredictors(t)
	k, topo, stacks, _ := hybridBed(t, eg, ing)
	stacks[0].StartFlow(8, 50_000, 1, nil)
	k.Run(des.Second)
	// The approximated cluster's switches must have processed nothing.
	for _, sw := range topo.ToRsInCluster(1) {
		if n := sw.Port(0).Stats().TxPackets; n != 0 {
			t.Errorf("orphaned ToR transmitted %d packets", n)
		}
	}
	for _, sw := range topo.AggsInCluster(1) {
		if n := sw.Port(0).Stats().TxPackets; n != 0 {
			t.Errorf("orphaned agg transmitted %d packets", n)
		}
	}
}

func TestRealClusterTrafficUnaffected(t *testing.T) {
	_, eg, ing := trainPredictors(t)
	k, _, stacks, fab := hybridBed(t, eg, ing)
	// Traffic entirely within the real cluster 0 must not touch the fabric.
	done := false
	stacks[0].StartFlow(4, 20_000, 1, func(tcp.FlowResult) { done = true })
	k.Run(des.Second)
	if !done {
		t.Fatal("real-cluster flow failed")
	}
	s := fab.Stats()
	if s.EgressPackets+s.IngressPackets+s.IntraPackets != 0 {
		t.Errorf("real-cluster traffic leaked into the fabric: %+v", s)
	}
}
