package core

import (
	"bytes"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/nn"
	"approxsim/internal/trace"
)

// quickTrain is the shared fixture: a short full-fidelity capture and tiny
// models, reused across tests via sync-free lazy init in TestMain order.
func quickTrain(t *testing.T) (Config, *Models) {
	t.Helper()
	cfg := Config{Clusters: 2, Duration: 4 * des.Millisecond, Seed: 61, Load: 0.4}
	full, err := Run(cfg, ClusterBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) == 0 {
		t.Fatal("no boundary records captured")
	}
	models, err := TrainModels(full.Records, cfg.TopologyConfig(), TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 25, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, models
}

func TestFullBasics(t *testing.T) {
	cfg := Config{Clusters: 2, Duration: 3 * des.Millisecond, Seed: 3}
	res, err := Run(cfg, NoBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed == 0 {
		t.Error("no flows completed")
	}
	if res.RTTs.Len() == 0 {
		t.Error("no RTT samples from observed cluster")
	}
	if res.Events == 0 {
		t.Error("no events executed")
	}
	if res.Records != nil {
		t.Error("records captured without request")
	}
	if res.SimSecondsPerSecond() <= 0 {
		t.Error("sim-seconds-per-second not positive")
	}
}

func TestFullCapture(t *testing.T) {
	cfg := Config{Clusters: 2, Duration: 3 * des.Millisecond, Seed: 5}
	res, err := Run(cfg, ClusterBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("capture requested but no records returned")
	}
	eg, ing := trace.Split(res.Records)
	if len(eg) == 0 || len(ing) == 0 {
		t.Errorf("capture missing a direction: %d egress, %d ingress", len(eg), len(ing))
	}
}

func TestTrainModelsRejectsEmpty(t *testing.T) {
	cfg := Config{Clusters: 2}.withDefaults()
	if _, err := TrainModels(nil, cfg.TopologyConfig(), TrainOptions{}); err == nil {
		t.Error("TrainModels with no records should error")
	}
}

func TestHybridEndToEnd(t *testing.T) {
	cfg, models := quickTrain(t)
	hybrid, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Summary.Completed == 0 {
		t.Error("no flows completed in hybrid run")
	}
	if hybrid.RTTs.Len() == 0 {
		t.Error("no RTT samples in hybrid run")
	}
	if len(hybrid.FabricStats) != 1 {
		t.Fatalf("expected 1 fabric, got %d", len(hybrid.FabricStats))
	}
	fs := hybrid.FabricStats[0]
	if fs.EgressPackets+fs.IngressPackets == 0 {
		t.Error("approximated fabric saw no traffic")
	}
}

// With 3 of 4 clusters approximated, the hybrid elides the flows that never
// touch the observed cluster.
func TestHybridElidesApproxOnlyTraffic(t *testing.T) {
	cfg, models := quickTrain(t)
	cfg.Clusters = 4
	full, err := Run(cfg, NoBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Summary.Completed == 0 {
		t.Fatal("no completions in hybrid run")
	}
	if hybrid.Summary.Flows >= full.Summary.Flows {
		t.Errorf("hybrid scheduled %d flows, full %d: approximated-only traffic not elided",
			hybrid.Summary.Flows, full.Summary.Flows)
	}
}

func TestHybridFewerEventsThanFull(t *testing.T) {
	cfg, models := quickTrain(t)
	cfg.Clusters = 4
	full, err := Run(cfg, NoBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Events >= full.Events {
		t.Errorf("hybrid events %d >= full events %d", hybrid.Events, full.Events)
	}
}

func TestCompareRTT(t *testing.T) {
	cfg, models := quickTrain(t)
	full, err := Run(cfg, NoBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareRTT(full, hybrid, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.KS < 0 || cmp.KS > 1 {
		t.Errorf("KS = %v outside [0,1]", cmp.KS)
	}
	if len(cmp.Full) == 0 || len(cmp.Approx) == 0 {
		t.Error("empty CDF series")
	}
	// Both CDFs should live in the same order of magnitude: RTTs are
	// microseconds to milliseconds.
	for _, pt := range cmp.Approx {
		if pt.Value <= 0 || pt.Value > 1 {
			t.Errorf("approx RTT %v s implausible", pt.Value)
		}
	}
}

func TestHybridRequiresModels(t *testing.T) {
	if _, err := Run(Config{Clusters: 2}, ClusterBoundary, &Models{}); err == nil {
		t.Error("hybrid run with untrained models should error")
	}
	models := &Models{Egress: &nn.Model{}, Ingress: &nn.Model{}}
	if _, err := Run(Config{Clusters: 2}, NoBoundary, models); err == nil {
		t.Error("models with no boundary to replace should error")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Clusters != 2 || c.Load != 0.4 || c.Duration == 0 || c.Drain == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestModelsSaveLoadRoundTrip(t *testing.T) {
	_, models := quickTrain(t)
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EgressFloor != models.EgressFloor || loaded.IngressFloor != models.IngressFloor {
		t.Error("floors lost in round trip")
	}
	if loaded.Egress.NumParams() != models.Egress.NumParams() {
		t.Error("egress model shape changed")
	}
	// A hybrid run with the loaded bundle must work.
	cfg := Config{Clusters: 2, Duration: 2 * des.Millisecond, Seed: 71}
	res, err := Run(cfg, ClusterBoundary, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed == 0 {
		t.Error("no completions with loaded models")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Error("LoadModels accepted garbage")
	}
}

func TestNoMacroAblation(t *testing.T) {
	cfg := Config{Clusters: 2, Duration: 4 * des.Millisecond, Seed: 81, Load: 0.4}
	full, err := Run(cfg, ClusterBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	models, err := TrainModels(full.Records, cfg.TopologyConfig(), TrainOptions{
		Hidden: 8, Layers: 1, NoMacro: true,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 20, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !models.NoMacro {
		t.Fatal("NoMacro flag not propagated")
	}
	res, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Completed == 0 {
		t.Error("ablated hybrid run completed nothing")
	}
}

func TestDCTCPEndToEnd(t *testing.T) {
	// The modularity goal (§3): the entire capture->train->approximate
	// pipeline must work unchanged under a different transport protocol.
	cfg := Config{Clusters: 2, Duration: 4 * des.Millisecond, Seed: 91, Load: 0.5, DCTCP: true}
	full, err := Run(cfg, ClusterBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Summary.Completed == 0 {
		t.Fatal("no DCTCP flows completed")
	}
	models, err := TrainModels(full.Records, cfg.TopologyConfig(), TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 25, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(cfg, ClusterBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.Summary.Completed == 0 {
		t.Error("no DCTCP flows completed in hybrid run")
	}
}

func TestBlackBoxEndToEnd(t *testing.T) {
	// The section 7 "single black box" limit: capture the whole-network
	// boundary, train, replace everything beyond the observed cluster's
	// aggs, and run.
	cfg := Config{Clusters: 4, Duration: 4 * des.Millisecond, Seed: 171, Load: 0.4}
	full, err := Run(cfg, WholeNetBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	eg, ing := trace.Split(full.Records)
	if len(eg) == 0 || len(ing) == 0 {
		t.Fatalf("whole-net capture thin: %d egress, %d ingress", len(eg), len(ing))
	}
	models, err := TrainModels(full.Records, cfg.TopologyConfig(), TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 30, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Run(cfg, WholeNetBoundary, models)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Summary.Completed == 0 {
		t.Fatal("no flows completed through the black box")
	}
	if len(bb.FabricStats) != 1 {
		t.Fatalf("want 1 black box stats entry, got %d", len(bb.FabricStats))
	}
	s := bb.FabricStats[0]
	if s.EgressPackets == 0 || s.IngressPackets == 0 {
		t.Errorf("black box traffic counters empty: %+v", s)
	}
	// The black box elides even more than per-cluster fabrics: cores are
	// gone too, so events must be below the full run's.
	if bb.Events >= full.Events {
		t.Errorf("black box events %d >= full %d", bb.Events, full.Events)
	}
}

func TestBlackBoxVsHybridEventCounts(t *testing.T) {
	cfg := Config{Clusters: 4, Duration: 3 * des.Millisecond, Seed: 181, Load: 0.4}
	fullC, err := Run(cfg, ClusterBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullW, err := Run(cfg, WholeNetBoundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 25, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	}
	mh, err := TrainModels(fullC.Records, cfg.TopologyConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := TrainModels(fullW.Records, cfg.TopologyConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := Run(cfg, ClusterBoundary, mh)
	if err != nil {
		t.Fatal(err)
	}
	blackbox, err := Run(cfg, WholeNetBoundary, mb)
	if err != nil {
		t.Fatal(err)
	}
	// Black box replaces strictly more of the network than per-cluster
	// fabrics (cores included), so it must schedule fewer events.
	if blackbox.Events >= hybrid.Events {
		t.Errorf("black box events %d >= hybrid %d", blackbox.Events, hybrid.Events)
	}
}
