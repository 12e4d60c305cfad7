package approxsim_test

import (
	"testing"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// TestPipelineEndToEnd is the whole paper as one test: capture, train,
// approximate, compare. It asserts the three properties the system is for:
// the hybrid runs the workload to completion, it schedules fewer events
// than full fidelity, and its RTT distribution stays within a sane
// divergence of ground truth.
func TestPipelineEndToEnd(t *testing.T) {
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      99,
		HorizonMS: 5,
		Capture:   "cluster",
	}
	full, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	models, err := core.TrainModels(full.Run.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 200, Batch: 16, BPTT: 16, Seed: 99},
		Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}

	big := sp
	big.Capture = ""
	big.Topology.Clusters = 8
	big.Seed = 1099 // held-out workload
	truth, err := scenario.Run(big)
	if err != nil {
		t.Fatal(err)
	}
	big.Mode = "hybrid"
	hybrid, err := scenario.Run(big, scenario.WithModels(models))
	if err != nil {
		t.Fatal(err)
	}

	if hybrid.Metrics.Completed == 0 {
		t.Fatal("hybrid completed no flows")
	}
	if hybrid.Perf.Events >= truth.Perf.Events {
		t.Errorf("hybrid events %d >= full %d: no elision", hybrid.Perf.Events, truth.Perf.Events)
	}
	cmp, err := core.CompareRTT(truth.Run, hybrid.Run, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's own Fig. 4 shows substantial divergence ("consistently
	// underestimating congestion"); we assert the distribution is related,
	// not identical.
	if cmp.KS > 0.85 {
		t.Errorf("KS distance %.3f: approximation unrelated to ground truth", cmp.KS)
	}
	t.Logf("events: full=%d hybrid=%d (%.2fx); KS=%.3f",
		truth.Perf.Events, hybrid.Perf.Events,
		float64(truth.Perf.Events)/float64(hybrid.Perf.Events), cmp.KS)
}

// TestFullDeterministic pins the whole-system determinism guarantee at the
// top level: identical seeds must give identical event counts and flow
// outcomes.
func TestFullDeterministic(t *testing.T) {
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      123,
		HorizonMS: 3,
	}
	a, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Perf.Events != b.Perf.Events {
		t.Errorf("event counts differ: %d vs %d", a.Perf.Events, b.Perf.Events)
	}
	if a.Metrics.Completed != b.Metrics.Completed ||
		a.Metrics.TotalBytes != b.Metrics.TotalBytes ||
		a.Metrics.Retrans != b.Metrics.Retrans {
		t.Errorf("summaries differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
	if a.Run.RTTs.Len() != b.Run.RTTs.Len() {
		t.Errorf("RTT sample counts differ: %d vs %d", a.Run.RTTs.Len(), b.Run.RTTs.Len())
	}
}

// TestEnginesAgreeOnLightLoad cross-validates the packet engine against a
// closed-form bound: at light load (no loss, little queueing) no flow can
// finish faster than its bytes serialize onto the host link, and slow start
// keeps packet FCTs somewhat above that bound, never wildly so.
func TestEnginesAgreeOnLightLoad(t *testing.T) {
	topoCfg := topology.DefaultClosConfig(2)
	hosts := make([]packet.HostID, topoCfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	const dur = 4 * des.Millisecond
	bw := topoCfg.HostLink.BandwidthBps
	specs, err := traffic.GenerateSpecs(traffic.Config{Load: 0.1, HostBandwidthBps: bw, Seed: 7}, hosts, dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 3 {
		t.Skip("not enough arrivals at this seed")
	}
	net, err := pdes.Build(topoCfg, 1, specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Sys.Run(10 * dur); err != nil {
		t.Fatal(err)
	}
	var fctSum, boundSum float64
	n := 0
	for _, f := range net.Results() {
		if !f.Completed {
			continue
		}
		bound := float64(f.Size*8) / float64(bw)
		if fct := f.FCT().Seconds(); fct < bound {
			t.Errorf("flow %d: packet FCT %.3g beats the physical bound %.3g: impossible", f.FlowID, fct, bound)
		}
		fctSum += f.FCT().Seconds()
		boundSum += bound
		n++
	}
	if n == 0 {
		t.Fatal("no flow completed at light load")
	}
	if fctSum > boundSum*50 {
		t.Errorf("packet mean FCT %.3g vs bound %.3g: engine far off physics", fctSum/float64(n), boundSum/float64(n))
	}
}

// TestPDESCompletesAcrossLPCounts: the same pdes-mode workload completes a
// comparable flow count whether the leaf-spine runs on 1, 2 or 4 LPs. (The
// exact guard that the PDES network and the single-kernel topology share one
// port layout is pdes.TestPortLayoutMatchesTopology.)
func TestPDESCompletesAcrossLPCounts(t *testing.T) {
	var base int
	for _, lps := range []int{1, 2, 4} {
		r, err := scenario.Run(scenario.Spec{
			Mode:      "pdes",
			Topology:  scenario.Topology{Racks: 8},
			Workload:  scenario.Workload{Load: 0.3},
			LPs:       lps,
			Seed:      5,
			HorizonMS: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := r.Metrics.Completed
		if done == 0 {
			t.Fatalf("lps=%d completed nothing", lps)
		}
		if lps == 1 {
			base = done
			continue
		}
		if done < base*7/10 || done > base*13/10 {
			t.Errorf("lps=%d completed %d flows vs %d sequential", lps, done, base)
		}
	}
}
