package pdes

import (
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// poissonSpecs generates the standard Poisson web-search workload over every
// host of cfg at the given load, arriving until dur.
func poissonSpecs(cfg topology.Config, load float64, dur des.Time, seed uint64) ([]traffic.FlowSpec, error) {
	hosts := make([]packet.HostID, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	return traffic.GenerateSpecs(traffic.Config{
		Load:             load,
		HostBandwidthBps: cfg.HostLink.BandwidthBps,
		Seed:             seed,
	}, hosts, dur)
}

// runNetwork builds cfg on lps LPs under algo with the Poisson workload of
// (load, seed) over dur, registers it in reg (ignored when nil), runs it
// through each cut and then to dur, and reduces the run.
func runNetwork(cfg topology.Config, lps int, load float64, dur des.Time, seed uint64,
	algo SyncAlgo, reg *metrics.Registry, cuts []des.Time, opts ...Option) (*ExperimentResult, error) {

	specs, err := poissonSpecs(cfg, load, dur, seed)
	if err != nil {
		return nil, err
	}
	net, err := Build(cfg, lps, specs, append([]Option{WithSyncAlgo(algo)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		net.RegisterMetrics(reg)
	}
	start := time.Now()
	for _, end := range cuts {
		if err := net.Sys.Run(end); err != nil {
			return nil, err
		}
	}
	if err := net.Sys.Run(dur); err != nil {
		return nil, err
	}
	return net.AssembleResult(net.Sys.Stats(), dur, time.Since(start)), nil
}

// TestClosSmoke drives traffic through the partitioned three-tier Clos and
// checks the run is healthy: flows move, cross-LP traffic exists, and neither
// the conservative promises nor the quiescence analysis are violated.
func TestClosSmoke(t *testing.T) {
	res, err := runNetwork(topology.DefaultClosConfig(4), 2, 0.4, des.Millisecond, 11, NullMessages, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsStarted == 0 || res.FlowsCompleted == 0 {
		t.Fatalf("clos run moved no traffic: %+v", res)
	}
	if res.CrossPkts == 0 {
		t.Error("clos run shipped no cross-LP packets")
	}
	if res.Violations != 0 {
		t.Errorf("%d causality violations", res.Violations)
	}
	if res.QuiescentSends != 0 {
		t.Errorf("%d sends on channels the quiescence analysis declared idle", res.QuiescentSends)
	}
}

// TestClosResultTransportStats: a Clos result carries the transport summary
// of its flows — retransmissions, timeouts and goodput exactly as
// traffic.Summarize reports them — and counts the ToRs of every cluster.
func TestClosResultTransportStats(t *testing.T) {
	const dur = des.Millisecond
	cfg := topology.DefaultClosConfig(4)
	specs, err := poissonSpecs(cfg, 0.4, dur, 11)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(cfg, 2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Sys.Run(dur); err != nil {
		t.Fatal(err)
	}
	res := net.AssembleResult(net.Sys.Stats(), dur, 0)
	want := traffic.Summarize(net.Results(), dur)
	if want.GoodputBps == 0 {
		t.Fatal("the workload delivered nothing; the comparison below would prove nothing")
	}
	if res.Retrans != want.Retrans || res.Timeouts != want.Timeouts || res.GoodputBps != want.GoodputBps {
		t.Errorf("result retrans/timeouts/goodput = %d/%d/%g, summary %d/%d/%g",
			res.Retrans, res.Timeouts, res.GoodputBps, want.Retrans, want.Timeouts, want.GoodputBps)
	}
	if res.ToRs != cfg.NumToRs() {
		t.Errorf("result counts %d ToRs, the topology has %d", res.ToRs, cfg.NumToRs())
	}
}

// TestPortLayoutMatchesTopology pins the one port layout both builders share:
// on each fabric kind, every port of every device Build creates faces the
// same peer device and peer port as the same port of topology.Build, whose
// layout the routing arithmetic (topology.RouteOn) assumes, and every host
// NIC gets the same queue.
func TestPortLayoutMatchesTopology(t *testing.T) {
	type end struct {
		id   packet.NodeID
		port int
	}
	peer := func(p *netsim.Port) end {
		d, i := p.Peer()
		return end{d.NodeID(), i}
	}
	for kind, cfg := range map[string]topology.Config{
		"leafspine": topology.DefaultLeafSpineConfig(4),
		"clos":      topology.DefaultClosConfig(3),
	} {
		ref, err := topology.Build(des.NewKernel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Build(cfg, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		refSwitches := append(append(append([]*netsim.Switch(nil), ref.ToRs...), ref.Aggs...), ref.Cores...)
		if len(net.Switches) != len(refSwitches) {
			t.Fatalf("%s: %d switches, topology.Build has %d", kind, len(net.Switches), len(refSwitches))
		}
		for i, sw := range net.Switches {
			refSw := refSwitches[i]
			if sw.NodeID() != refSw.NodeID() || sw.NumPorts() != refSw.NumPorts() {
				t.Fatalf("%s: switch %d is node %d with %d ports, want node %d with %d",
					kind, i, sw.NodeID(), sw.NumPorts(), refSw.NodeID(), refSw.NumPorts())
			}
			for p := 0; p < sw.NumPorts(); p++ {
				if got, want := peer(sw.Port(p)), peer(refSw.Port(p)); got != want {
					t.Errorf("%s: switch %d port %d faces %+v, want %+v", kind, sw.NodeID(), p, got, want)
				}
			}
		}
		for h, host := range net.Hosts {
			nic, want := host.NIC(), ref.Hosts[h].NIC()
			if peer(nic) != peer(want) || nic.Config() != want.Config() {
				t.Errorf("%s: host %d NIC faces %+v with %+v, want %+v with %+v",
					kind, h, peer(nic), nic.Config(), peer(want), want.Config())
			}
		}
	}
}

// TestClosDeterminismAcrossPartitioners: like the leaf-spine determinism
// property, the Clos build must commit bit-identical netsim+tcp results no
// matter how the cores are placed — including against the sequential
// single-LP reference.
func TestClosDeterminismAcrossPartitioners(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped under -short")
	}
	run := func(lps int, p Partitioner) string {
		reg := metrics.NewRegistry()
		res, err := runNetwork(topology.DefaultClosConfig(4), lps, 0.4, des.Millisecond, 11, NullMessages, reg, nil,
			WithPartitioner(p))
		if err != nil {
			t.Fatalf("lps=%d %s: %v", lps, p.Name(), err)
		}
		if res.Violations != 0 {
			t.Fatalf("lps=%d %s: %d causality violations", lps, p.Name(), res.Violations)
		}
		if res.QuiescentSends != 0 {
			t.Fatalf("lps=%d %s: %d quiescent-channel sends", lps, p.Name(), res.QuiescentSends)
		}
		return committedGroups(t, reg)
	}
	ref := run(1, ContiguousPartitioner{})
	for _, lps := range []int{2, 4} {
		for _, p := range []Partitioner{ContiguousPartitioner{}, SpineAwarePartitioner{}, MinCutPartitioner{}} {
			if got := run(lps, p); got != ref {
				t.Errorf("clos lps=%d %s diverged from the sequential reference", lps, p.Name())
			}
		}
	}
}

// TestClosRejectsBadShapes pins Build's LP-count validation on a Clos: one
// whole cluster per LP at least.
func TestClosRejectsBadShapes(t *testing.T) {
	for _, lps := range []int{0, 5} {
		if _, err := Build(topology.DefaultClosConfig(4), lps, nil); err == nil {
			t.Errorf("Build accepted lps=%d on 4 clusters", lps)
		}
	}
}
