package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"approxsim/internal/approx"
	"approxsim/internal/core"
	"approxsim/internal/metrics"
	"approxsim/internal/micro"
	"approxsim/internal/nn"
	"approxsim/internal/rng"
	"approxsim/internal/scenario"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// closSpec is a full-fidelity clos spec of the given size, horizon and seed.
func closSpec(clusters int, horizonMS float64, seed uint64) scenario.Spec {
	return scenario.Spec{
		Topology:  scenario.Topology{Clusters: clusters},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      seed,
		HorizonMS: horizonMS,
	}
}

// run runs sp in mode, capturing at capture ("" for none), with models when
// given.
func run(t *testing.T, sp scenario.Spec, mode, capture string, models *core.Models, opts ...scenario.RunOption) *scenario.Result {
	t.Helper()
	sp.Mode, sp.Capture = mode, capture
	if models != nil {
		opts = append(opts, scenario.WithModels(models))
	}
	res, err := scenario.Run(sp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tinyTrain fits the small models every test uses from a capture.
func tinyTrain(t *testing.T, records []trace.Record, sp scenario.Spec, batches int, noMacro bool) *core.Models {
	t.Helper()
	models, err := core.TrainModels(records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 8, Layers: 1, NoMacro: noMacro,
		NN:   nn.TrainConfig{LR: 0.02, Batches: batches, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return models
}

// quickTrain is the shared fixture: a short full-fidelity capture and tiny
// models.
func quickTrain(t *testing.T) (scenario.Spec, *core.Models) {
	t.Helper()
	sp := closSpec(2, 4, 61)
	full := run(t, sp, "full", "cluster", nil)
	if len(full.Run.Records) == 0 {
		t.Fatal("no boundary records captured")
	}
	return sp, tinyTrain(t, full.Run.Records, sp, 25, false)
}

func TestFullBasics(t *testing.T) {
	res := run(t, closSpec(2, 3, 3), "full", "", nil)
	if res.Metrics.Completed == 0 {
		t.Error("no flows completed")
	}
	if res.Run.RTTs.Len() == 0 {
		t.Error("no RTT samples from observed cluster")
	}
	if res.Perf.Events == 0 {
		t.Error("no events executed")
	}
	if res.Run.Records != nil {
		t.Error("records captured without request")
	}
	if res.Perf.SimPerWall <= 0 {
		t.Error("sim-seconds-per-second not positive")
	}
}

func TestFullCapture(t *testing.T) {
	res := run(t, closSpec(2, 3, 5), "full", "cluster", nil)
	if len(res.Run.Records) == 0 {
		t.Fatal("capture requested but no records returned")
	}
	eg, ing := trace.Split(res.Run.Records)
	if len(eg) == 0 || len(ing) == 0 {
		t.Errorf("capture missing a direction: %d egress, %d ingress", len(eg), len(ing))
	}
}

func TestDefaults(t *testing.T) {
	if got := (core.Config{}).TopologyConfig().Clusters; got != 2 {
		t.Errorf("default Clusters = %d, want 2", got)
	}
}

func TestTrainModelsRejectsEmpty(t *testing.T) {
	if _, err := core.TrainModels(nil, core.Config{Clusters: 2}.TopologyConfig(), core.TrainOptions{}); err == nil {
		t.Error("TrainModels with no records should error")
	}
}

func TestHybridEndToEnd(t *testing.T) {
	sp, models := quickTrain(t)
	hybrid := run(t, sp, "hybrid", "", models)
	if hybrid.Metrics.Completed == 0 {
		t.Error("no flows completed in hybrid run")
	}
	if hybrid.Run.RTTs.Len() == 0 {
		t.Error("no RTT samples in hybrid run")
	}
	if len(hybrid.Run.FabricStats) != 1 {
		t.Fatalf("expected 1 fabric, got %d", len(hybrid.Run.FabricStats))
	}
	fs := hybrid.Run.FabricStats[0]
	if fs.EgressPackets+fs.IngressPackets == 0 {
		t.Error("approximated fabric saw no traffic")
	}
}

// With 3 of 4 clusters approximated, the hybrid elides the flows that never
// touch the observed cluster.
func TestHybridElidesApproxOnlyTraffic(t *testing.T) {
	sp, models := quickTrain(t)
	sp.Topology.Clusters = 4
	full := run(t, sp, "full", "", nil)
	hybrid := run(t, sp, "hybrid", "", models)
	if hybrid.Metrics.Completed == 0 {
		t.Fatal("no completions in hybrid run")
	}
	if hybrid.Metrics.Flows >= full.Metrics.Flows {
		t.Errorf("hybrid scheduled %d flows, full %d: approximated-only traffic not elided",
			hybrid.Metrics.Flows, full.Metrics.Flows)
	}
}

func TestHybridFewerEventsThanFull(t *testing.T) {
	sp, models := quickTrain(t)
	sp.Topology.Clusters = 4
	full := run(t, sp, "full", "", nil)
	hybrid := run(t, sp, "hybrid", "", models)
	if hybrid.Perf.Events >= full.Perf.Events {
		t.Errorf("hybrid events %d >= full events %d", hybrid.Perf.Events, full.Perf.Events)
	}
}

func TestCompareRTT(t *testing.T) {
	sp, models := quickTrain(t)
	full := run(t, sp, "full", "", nil)
	hybrid := run(t, sp, "hybrid", "", models)
	cmp, err := core.CompareRTT(full.Run, hybrid.Run, 64)
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
	if _, err := core.Attach(core.Config{Clusters: 2}, nil, nil, &topology.Boundary{}, &core.Models{}); err == nil {
		t.Error("hybrid run with untrained models should error")
	}
	models := &core.Models{Egress: &nn.Model{}, Ingress: &nn.Model{}}
	if _, err := core.Attach(core.Config{Clusters: 2}, nil, nil, nil, models); err == nil {
		t.Error("models with no boundary to replace should error")
	}
	if _, err := core.Attach(core.Config{Clusters: 2}, nil, nil, &topology.Boundary{Cluster: 1}, models); err == nil {
		t.Error("a boundary away from the observed cluster should error")
	}
}

func TestModelsSaveLoadRoundTrip(t *testing.T) {
	_, models := quickTrain(t)
	var buf bytes.Buffer
	if err := models.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadModels(&buf)
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
	if res := run(t, closSpec(2, 2, 71), "hybrid", "", loaded); res.Metrics.Completed == 0 {
		t.Error("no completions with loaded models")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := core.LoadModels(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Error("LoadModels accepted garbage")
	}
}

// TestLoadModelsRejectsWrongInputWidth: a bundle whose models were built for
// another feature width is refused at load, not left to panic in Predict.
func TestLoadModelsRejectsWrongInputWidth(t *testing.T) {
	_, models := quickTrain(t)
	wrong := *models
	wrong.Ingress = nn.NewModel(micro.FeatureDim+1, 4, 1, rng.New(1))
	var buf bytes.Buffer
	if err := wrong.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModels(&buf); err == nil {
		t.Error("LoadModels accepted a model of the wrong input width")
	}
}

func TestNoMacroAblation(t *testing.T) {
	sp := closSpec(2, 4, 81)
	full := run(t, sp, "full", "cluster", nil)
	models := tinyTrain(t, full.Run.Records, sp, 20, true)
	if !models.NoMacro {
		t.Fatal("NoMacro flag not propagated")
	}
	if res := run(t, sp, "hybrid", "", models); res.Metrics.Completed == 0 {
		t.Error("ablated hybrid run completed nothing")
	}
}

func TestDCTCPEndToEnd(t *testing.T) {
	// The modularity goal (§3): the entire capture->train->approximate
	// pipeline must work unchanged under a different transport protocol.
	sp := closSpec(2, 4, 91)
	sp.Workload.Load, sp.DCTCP = 0.5, true
	reg := metrics.NewRegistry()
	full := run(t, sp, "full", "cluster", nil, scenario.WithRegistry(reg))
	if full.Metrics.Completed == 0 {
		t.Fatal("no DCTCP flows completed")
	}
	// The network derives DCTCP from the spec's marking fabric: ports mark.
	if marks := reg.Snapshot().Counter("netsim", "ecn_marks"); marks == 0 {
		t.Error("DCTCP run marked no packets")
	}
	models := tinyTrain(t, full.Run.Records, sp, 25, false)
	if hybrid := run(t, sp, "hybrid", "", models); hybrid.Metrics.Completed == 0 {
		t.Error("no DCTCP flows completed in hybrid run")
	}
}

func TestBlackBoxEndToEnd(t *testing.T) {
	// The section 7 "single black box" limit: capture the whole-network
	// boundary, train, replace everything beyond the observed cluster's
	// aggs, and run.
	sp := closSpec(4, 4, 171)
	full := run(t, sp, "full", "wholenet", nil)
	eg, ing := trace.Split(full.Run.Records)
	if len(eg) == 0 || len(ing) == 0 {
		t.Fatalf("whole-net capture thin: %d egress, %d ingress", len(eg), len(ing))
	}
	bb := run(t, sp, "blackbox", "", tinyTrain(t, full.Run.Records, sp, 30, false))
	if bb.Metrics.Completed == 0 {
		t.Fatal("no flows completed through the black box")
	}
	if len(bb.Run.FabricStats) != 1 {
		t.Fatalf("want 1 black box stats entry, got %d", len(bb.Run.FabricStats))
	}
	s := bb.Run.FabricStats[0]
	if s.EgressPackets == 0 || s.IngressPackets == 0 {
		t.Errorf("black box traffic counters empty: %+v", s)
	}
	// The black box elides even more than per-cluster fabrics: cores are
	// gone too, so events must be below the full run's.
	if bb.Perf.Events >= full.Perf.Events {
		t.Errorf("black box events %d >= full %d", bb.Perf.Events, full.Perf.Events)
	}
}

// pinned is what TestBlackBoxVsHybridEventCounts holds exactly for one run.
type pinned struct {
	events               uint64
	records, rtts, flows int
	fabrics              []approx.Stats
}

func pinOf(res *scenario.Result) pinned {
	return pinned{res.Perf.Events, len(res.Run.Records), res.Run.RTTs.Len(), res.Metrics.Completed, res.Run.FabricStats}
}

func TestBlackBoxVsHybridEventCounts(t *testing.T) {
	sp := closSpec(4, 3, 181)
	fullC := run(t, sp, "full", "cluster", nil)
	fullW := run(t, sp, "full", "wholenet", nil)
	hybrid := run(t, sp, "hybrid", "", tinyTrain(t, fullC.Run.Records, sp, 25, false))
	blackbox := run(t, sp, "blackbox", "", tinyTrain(t, fullW.Run.Records, sp, 25, false))
	// Black box replaces strictly more of the network than per-cluster
	// fabrics (cores included), so it must schedule fewer events.
	if blackbox.Perf.Events >= hybrid.Perf.Events {
		t.Errorf("black box events %d >= hybrid %d", blackbox.Perf.Events, hybrid.Perf.Events)
	}
	// Every count of all four runs is pinned exactly: capture on either
	// side of the boundary and replacement on either side must not move.
	want := []pinned{
		{events: 211629, records: 11533, rtts: 3231, flows: 22},
		{events: 211629, records: 11517, rtts: 3231, flows: 22},
		{events: 19927, rtts: 507, flows: 8, fabrics: []approx.Stats{
			{EgressPackets: 560, IngressPackets: 552, EgressDrops: 31, IngressDrops: 57, Conflicts: 492},
			{EgressPackets: 314, IngressPackets: 340, EgressDrops: 18, IngressDrops: 30, Conflicts: 146},
			{EgressPackets: 347, IngressPackets: 366, EgressDrops: 28, IngressDrops: 37, Conflicts: 136},
		}},
		{events: 15154, rtts: 531, flows: 5, fabrics: []approx.Stats{
			{EgressPackets: 1115, IngressPackets: 1079, EgressDrops: 86, IngressDrops: 92, Conflicts: 453},
		}},
	}
	for i, res := range []*scenario.Result{fullC, fullW, hybrid, blackbox} {
		if got := pinOf(res); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("run %d:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
}
