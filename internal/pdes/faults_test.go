package pdes

import (
	"bytes"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// TestLinkFlapDegradesTailLatency is the fault-injection acceptance scenario:
// the Figure-1 leaf-spine workload plus one long "victim" flow whose ECMP pin
// crosses the flapped link, run once healthy and once with the tor0-spine0
// uplink down for 1.5ms mid-workload. The horizon extends well past the
// workload so every flow — including those whose early segments blackhole
// and must wait out a full retransmission timeout — completes in both runs.
// The flap must (a) measurably degrade the p99 flow-completion time,
// (b) blackhole packets during the detection delay, every one counted and
// none silent, and (c) surface both in the obs interval series via the
// tcp.fct_ns histogram rows and the fault_drops counter deltas.
func TestLinkFlapDegradesTailLatency(t *testing.T) {
	cfg := topology.DefaultLeafSpineConfig(4)
	const (
		seed    = uint64(7)
		load    = 0.5
		gen     = des.Millisecond      // workload generation window
		horizon = 80 * des.Millisecond // long enough for RTO recovery
	)

	// Victim flow: source host 0, remote destination, flow ID chosen so
	// tor0's healthy ECMP hash pins it onto uplink 0 — the link that flaps.
	// It guarantees traffic is in flight across the failure instant no
	// matter what the generated workload does.
	tor0, _, _ := cfg.Bases()
	victim := traffic.FlowSpec{Src: 0, Size: 1 << 20, At: 100 * des.Microsecond}
	for id := uint64(9000); victim.ID == 0; id++ {
		for d := cfg.ServersPerToR; d < cfg.NumHosts(); d++ {
			p := &packet.Packet{Src: 0, Dst: packet.HostID(d), FlowID: id}
			if port, ok := topology.RouteOn(cfg, nil, 0, tor0, p); ok && port == cfg.ServersPerToR {
				victim.ID, victim.Dst = id, packet.HostID(d)
				break
			}
		}
	}

	run := func(spec string) (*Network, *metrics.Registry, []samplerRow, traffic.Summary) {
		specs, err := poissonSpecs(cfg, load, gen, seed)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, victim)
		reg := metrics.NewRegistry()
		var buf bytes.Buffer
		opts := []Option{WithSampler(obs.NewSampler(reg, &buf, 5*des.Millisecond))}
		if spec != "" {
			sched, err := topology.ParseFaults(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, WithFaults(sched))
		}
		net, err := Build(cfg, 1, specs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		net.RegisterMetrics(reg)
		if err := net.Sys.Run(horizon); err != nil {
			t.Fatal(err)
		}
		results := net.Results()
		if len(results) != len(specs) {
			t.Fatalf("flow accounting hole: %d specs, %d results", len(specs), len(results))
		}
		for _, r := range results {
			if !r.Completed {
				t.Fatalf("flow %d (%d->%d, %dB) did not complete by the %v horizon",
					r.FlowID, r.Src, r.Dst, r.Size, horizon)
			}
		}
		return net, reg, decodeRows(t, buf.Bytes()), traffic.Summarize(results, horizon)
	}

	hNet, _, hRows, hSum := run("")
	flap := "link:tor0-spine0@400us+1500us,detect=400us,jitter=50us"
	fNet, fReg, fRows, fSum := run(flap)

	// (a) Tail latency degrades measurably: flows whose early segments
	// blackhole pay at least a retransmission timeout.
	if fSum.P99FCT < 1.2*hSum.P99FCT {
		t.Errorf("p99 FCT did not degrade under the link flap: healthy %.6gs, faulted %.6gs",
			hSum.P99FCT, fSum.P99FCT)
	}

	// (b) Blackholed packets are counted, never silent. The healthy run
	// must not record a single fault or route drop; the faulted run must
	// record fault drops (the victim guarantees in-flight traffic on the
	// dead link during the detection delay), and the metrics registry must
	// agree exactly with the builder's accounting.
	if hNet.FaultDrops() != 0 || hNet.RouteDrops() != 0 {
		t.Errorf("healthy run recorded drops: fault=%d route=%d", hNet.FaultDrops(), hNet.RouteDrops())
	}
	if fNet.FaultDrops() == 0 {
		t.Error("link flap produced zero fault drops — blackholing is not being counted")
	}
	var regFault, regRoute uint64
	for _, m := range fReg.Snapshot().Metrics() {
		if m.Group != "netsim" {
			continue
		}
		switch m.Name {
		case "fault_drops":
			regFault += m.Value.Counter
		case "route_drops":
			regRoute += m.Value.Counter
		}
	}
	if regFault != fNet.FaultDrops() || regRoute != fNet.RouteDrops() {
		t.Errorf("drop accounting mismatch: registry fault=%d route=%d, builder fault=%d route=%d",
			regFault, regRoute, fNet.FaultDrops(), fNet.RouteDrops())
	}

	// (c) The interval series carries the evidence: fct_ns histogram rows
	// whose tail reflects the outage, and fault_drops counter deltas that
	// telescope to the final total.
	finalFCT := func(rows []samplerRow) map[string]float64 {
		for i := len(rows) - 1; i >= 0; i-- {
			if h, ok := rows[i].Hists["tcp.fct_ns"]; ok {
				return h
			}
		}
		t.Fatal("no tcp.fct_ns histogram row in the interval series")
		return nil
	}
	if fh, hh := finalFCT(fRows), finalFCT(hRows); fh["max"] <= hh["max"] {
		t.Errorf("interval-series max FCT did not degrade: healthy %g ns, faulted %g ns",
			hh["max"], fh["max"])
	}
	var seriesFault int64
	for _, r := range fRows {
		seriesFault += r.Counters["netsim.fault_drops"]
	}
	if uint64(seriesFault) != fNet.FaultDrops() {
		t.Errorf("interval fault_drop deltas telescope to %d, want %d", seriesFault, fNet.FaultDrops())
	}
}

// TestLimitChannelsRejectsFaults pins the configuration error: channel
// quiescence proves idleness from healthy-path analysis, which a fault
// schedule invalidates, so combining them must fail loudly rather than
// silently drop rerouted packets.
func TestLimitChannelsRejectsFaults(t *testing.T) {
	sched, err := topology.ParseFaults(topology.DefaultLeafSpineConfig(2),
		"link:tor0-spine0@100us+100us,detect=10us")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(2, WithFaults(sched))
	if err := sys.LimitChannels(func(from, to int) bool { return true }); err == nil {
		t.Fatal("LimitChannels accepted a system with a fault schedule")
	}
}
