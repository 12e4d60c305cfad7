package pdes

import (
	"testing"

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
	return skewedSpecs(cfg, cfg.NumToRs(), load, dur, seed)
}

// skewedSpecs is the Poisson workload of (load, seed) confined to the hosts
// of the first racks racks, the rest idle: the ranks-on-the-first-racks shape
// whose block weights make the builder cut the racks unevenly.
func skewedSpecs(cfg topology.Config, racks int, load float64, dur des.Time, seed uint64) ([]traffic.FlowSpec, error) {
	hosts := make([]packet.HostID, racks*cfg.ServersPerToR)
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
// through each cut and then to dur, and returns the finished network.
func runNetwork(cfg topology.Config, lps int, load float64, dur des.Time, seed uint64,
	algo SyncAlgo, reg *metrics.Registry, cuts []des.Time, opts ...Option) (*Network, error) {

	specs, err := poissonSpecs(cfg, load, dur, seed)
	if err != nil {
		return nil, err
	}
	return runSpecs(cfg, lps, specs, dur, algo, reg, cuts, opts...)
}

// runSpecs is runNetwork over an explicit workload.
func runSpecs(cfg topology.Config, lps int, specs []traffic.FlowSpec, dur des.Time,
	algo SyncAlgo, reg *metrics.Registry, cuts []des.Time, opts ...Option) (*Network, error) {

	net, err := Build(cfg, lps, specs, append([]Option{WithSyncAlgo(algo)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		net.RegisterMetrics(reg)
	}
	for _, end := range cuts {
		if err := net.Sys.Run(end); err != nil {
			return nil, err
		}
	}
	if err := net.Sys.Run(dur); err != nil {
		return nil, err
	}
	return net, nil
}

// completed counts the flows of net that ran to completion.
func completed(net *Network) int { return traffic.Summarize(net.Results(), 0).Completed }

// TestClosSmoke drives traffic through the partitioned three-tier Clos and
// checks the run is healthy: flows move, cross-LP traffic exists, and neither
// the conservative promises nor the quiescence analysis are violated.
func TestClosSmoke(t *testing.T) {
	net, err := runNetwork(topology.DefaultClosConfig(4), 2, 0.4, des.Millisecond, 11, NullMessages, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.FlowsStarted() == 0 || completed(net) == 0 {
		t.Fatalf("clos run moved no traffic: %d flows started, %d completed", net.FlowsStarted(), completed(net))
	}
	st := net.Sys.Stats()
	if st[CrossPkts] == 0 {
		t.Error("clos run shipped no cross-LP packets")
	}
	if st[Violations] != 0 {
		t.Errorf("%d causality violations", st[Violations])
	}
	if st[QuiescentSends] != 0 {
		t.Errorf("%d sends on channels the quiescence analysis declared idle", st[QuiescentSends])
	}
}

// TestClosResultTransportStats: a Clos run reports its transport summary —
// the flows started are exactly the scheduled ones, and they deliver — and
// the network counts the ToRs of every cluster. (That scenario results copy
// this summary exactly is scenario.TestReduceMatchesNetwork.)
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
	sum := traffic.Summarize(net.Results(), dur)
	if sum.GoodputBps == 0 || sum.Completed == 0 {
		t.Fatalf("the workload delivered nothing: %+v", sum)
	}
	if net.FlowsStarted() != len(specs) || sum.Flows != len(specs) {
		t.Errorf("%d flows started, %d with results, want the %d scheduled", net.FlowsStarted(), sum.Flows, len(specs))
	}
	if got, want := net.Cfg.NumToRs(), cfg.Clusters*cfg.ToRsPerCluster; got != want {
		t.Errorf("network counts %d ToRs, the topology has %d", got, want)
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

// TestClosDeterminismAcrossLPs: like the leaf-spine determinism property, the
// Clos build must commit bit-identical netsim+tcp results at every LP count —
// including against the sequential single-LP reference.
func TestClosDeterminismAcrossLPs(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped under -short")
	}
	run := func(lps int) string {
		reg := metrics.NewRegistry()
		net, err := runNetwork(topology.DefaultClosConfig(4), lps, 0.4, des.Millisecond, 11, NullMessages, reg, nil)
		if err != nil {
			t.Fatalf("lps=%d: %v", lps, err)
		}
		if st := net.Sys.Stats(); st[Violations] != 0 || st[QuiescentSends] != 0 {
			t.Fatalf("lps=%d: %d causality violations, %d quiescent-channel sends",
				lps, st[Violations], st[QuiescentSends])
		}
		return committedGroups(t, reg)
	}
	ref := run(1)
	for _, lps := range []int{2, 3, 4} {
		if got := run(lps); got != ref {
			t.Errorf("clos lps=%d diverged from the sequential reference", lps)
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
