package micro

import (
	"bytes"
	"math"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
	"approxsim/internal/traffic"
)

func buildTopo(t *testing.T) *topology.Topology {
	t.Helper()
	k := des.NewKernel()
	topo, err := topology.Build(k, topology.DefaultClosConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestLatencyNormalizationRoundTrip(t *testing.T) {
	for _, lat := range []des.Time{0, 100, des.Microsecond, 50 * des.Microsecond,
		des.Millisecond, 10 * des.Millisecond} {
		y := NormalizeLatency(lat)
		if y < 0 || y > 1 {
			t.Errorf("NormalizeLatency(%v) = %v outside [0,1]", lat, y)
		}
		back := DenormalizeLatency(y)
		// Log-scale round trip: within 0.1% or 2ns.
		diff := math.Abs(float64(back - lat))
		if diff > 0.001*float64(lat)+2 {
			t.Errorf("round trip %v -> %v", lat, back)
		}
	}
	if NormalizeLatency(-5) != 0 {
		t.Error("negative latency should normalize to 0")
	}
	if DenormalizeLatency(-0.1) != 0 {
		t.Error("negative label should denormalize to 0")
	}
}

func TestFeatureVectorShapeAndRange(t *testing.T) {
	topo := buildTopo(t)
	f := NewFeaturizer(topo)
	x := f.Features(1000, 0, 8, 42, packet.MaxFrameSize, false, macro.Minimal)
	if len(x) != FeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(x), FeatureDim)
	}
	for i, v := range x {
		if v < -1 || v > 1.5 || math.IsNaN(v) {
			t.Errorf("feature %d = %v outside sane range", i, v)
		}
	}
	// Macro one-hot occupies the last 4 slots.
	oh := x[FeatureDim-4:]
	if oh[0] != 1 || oh[1] != 0 || oh[2] != 0 || oh[3] != 0 {
		t.Errorf("macro one-hot wrong: %v", oh)
	}
}

func TestFeatureGapTracking(t *testing.T) {
	topo := buildTopo(t)
	f := NewFeaturizer(topo)
	x1 := f.Features(0, 0, 8, 1, 100, false, macro.Minimal)
	if x1[7] != 0 {
		t.Errorf("first packet gap feature = %v, want 0", x1[7])
	}
	x2 := f.Features(1000, 0, 8, 1, 100, false, macro.Minimal)
	if x2[7] <= 0 {
		t.Errorf("second packet gap feature = %v, want > 0", x2[7])
	}
	// Bigger gap -> bigger feature.
	x3 := f.Features(1_000_000, 0, 8, 1, 100, false, macro.Minimal)
	if x3[7] <= x2[7] {
		t.Errorf("gap feature not monotone: %v then %v", x2[7], x3[7])
	}
}

func TestFeaturePathVariesWithFlow(t *testing.T) {
	topo := buildTopo(t)
	f := NewFeaturizer(topo)
	// Same endpoints, different flows: ECMP should vary the agg/core hops
	// across enough flows.
	seen := map[float64]bool{}
	for flow := uint64(0); flow < 64; flow++ {
		x := f.Features(des.Time(flow)*1000, 0, 8, flow, 100, false, macro.Minimal)
		seen[x[3]] = true // agg feature
	}
	if len(seen) < 2 {
		t.Error("agg path feature constant across 64 flows; ECMP features broken")
	}
}

func TestIntraClusterPathMarkers(t *testing.T) {
	topo := buildTopo(t)
	f := NewFeaturizer(topo)
	// Same-rack flow: no agg, no core -> marker -1.
	x := f.Features(0, 0, 1, 5, 100, false, macro.Minimal)
	if x[3] != -1 || x[4] != -1 {
		t.Errorf("same-rack agg/core features = %v/%v, want -1/-1", x[3], x[4])
	}
}

// captureTraining runs a 2-cluster full-fidelity sim and returns boundary
// records for cluster 0 — the real training pipeline.
func captureTraining(t *testing.T, durMs int) (*topology.Topology, []trace.Record) {
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
	specs, err := traffic.GenerateSpecs(traffic.Config{Load: 0.5, HostBandwidthBps: 10e9, Seed: 33}, hosts, des.Time(durMs)*des.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		stack := stacks[sp.Src]
		k.At(sp.At, func() { stack.StartFlow(sp.Dst, sp.Size, sp.ID, nil) })
	}
	k.Run(des.Time(durMs+3) * des.Millisecond)
	return topo, rec.Records
}

func TestBuildExamples(t *testing.T) {
	topo, records := captureTraining(t, 4)
	eg, _ := trace.Split(records)
	examples, floor := BuildExamples(topo, eg, macro.Config{}, false)
	// Unresolved traversals are skipped, so examples <= records.
	if len(examples) == 0 || len(examples) > len(eg) {
		t.Fatalf("%d examples from %d records", len(examples), len(eg))
	}
	if floor <= 0 || floor > des.Millisecond {
		t.Errorf("latency floor %v implausible", floor)
	}
	for i, ex := range examples {
		if len(ex.X) != FeatureDim {
			t.Fatalf("example %d dim %d", i, len(ex.X))
		}
		if !ex.Dropped && (ex.Latency <= 0 || ex.Latency >= 1) {
			t.Fatalf("example %d latency label %v outside (0,1)", i, ex.Latency)
		}
	}
}

func TestTrainAndPredictEndToEnd(t *testing.T) {
	topo, records := captureTraining(t, 5)
	p, stats, err := Train(topo, trace.Egress, records, TrainConfig{
		Hidden: 12, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.01, Batches: 60, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastLoss >= stats.FirstLoss {
		t.Errorf("training loss did not fall: %v -> %v", stats.FirstLoss, stats.LastLoss)
	}
	// Predictions must be physically plausible.
	for i := 0; i < 100; i++ {
		drop, lat := p.Predict(des.Time(i)*10_000, 0, 8+packet.HostID(i%8), packet.MaxFrameSize, false,
			topo.PathFor(0, 8+packet.HostID(i%8), uint64(i)), macro.Minimal)
		if !drop {
			if lat < p.LatencyFloor {
				t.Fatalf("latency %v below floor %v", lat, p.LatencyFloor)
			}
			if lat > 100*des.Millisecond {
				t.Fatalf("latency %v absurd", lat)
			}
		}
	}
}

func TestTrainedLatencyInRightBallpark(t *testing.T) {
	topo, records := captureTraining(t, 6)
	egress, _ := trace.Split(records)
	p, _, err := Train(topo, trace.Egress, records, TrainConfig{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.05, Alpha: 1.0, Batches: 300, Batch: 8, BPTT: 8, Seed: 3},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay the training inputs; mean predicted latency should be within
	// 3x of the mean observed latency (coarse, but catches unit errors).
	var obsSum, predSum float64
	var n int
	p.Reset(topo)
	cls := macro.New(macro.Config{})
	for _, r := range egress {
		if r.Dropped || r.Latency <= 0 {
			continue
		}
		_, lat := p.Predict(r.Entry, r.Src, r.Dst, r.Size, r.IsAck, topo.PathFor(r.Src, r.Dst, r.Flow), cls.Current())
		cls.Observe(r.Entry, r.Latency.Seconds(), r.Dropped)
		obsSum += r.Latency.Seconds()
		predSum += lat.Seconds()
		n++
	}
	if n == 0 {
		t.Fatal("no delivered egress records")
	}
	obsMean, predMean := obsSum/float64(n), predSum/float64(n)
	if predMean > 3*obsMean || predMean < obsMean/3 {
		t.Errorf("predicted mean latency %.3gs vs observed %.3gs: wrong ballpark",
			predMean, obsMean)
	}
}

func TestTrainFailsOnNoRecords(t *testing.T) {
	topo := buildTopo(t)
	if _, _, err := Train(topo, trace.Egress, nil, TrainConfig{}); err == nil {
		t.Error("Train with no records should error")
	}
}

// TestPredictorSaveLoad: a predictor rebuilt from its saved model, direction,
// floor and seed (what core's model bundle stores) makes the same decisions.
func TestPredictorSaveLoad(t *testing.T) {
	topo, records := captureTraining(t, 4)
	p, _, err := Train(topo, trace.Ingress, records, TrainConfig{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{Batches: 10, Batch: 4, BPTT: 8, Seed: 5},
		Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPredictor(m, p.Dir, topo, Sample, 6, p.LatencyFloor)
	// Same streaming inputs -> same latency outputs (drop sampling shares
	// the seeded stream, so compare full tuples).
	p.Reset(topo)
	for i := 0; i < 30; i++ {
		path := topo.PathFor(8, 0, uint64(i))
		d1, l1 := p.Predict(des.Time(i)*5000, 8, 0, 500, false, path, macro.Minimal)
		d2, l2 := p2.Predict(des.Time(i)*5000, 8, 0, 500, false, path, macro.Minimal)
		if d1 != d2 || l1 != l2 {
			t.Fatalf("loaded predictor diverged at step %d", i)
		}
	}
}

func TestLoadPredictorRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("LoadModel accepted garbage")
	}
	// A model built for another feature width is refused at load, not left
	// to panic in Predict.
	var buf bytes.Buffer
	if err := nn.NewModel(FeatureDim-1, 4, 1, rng.New(1)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err == nil {
		t.Error("LoadModel accepted a model of the wrong input width")
	}
}

func TestThresholdPolicyDeterministic(t *testing.T) {
	topo := buildTopo(t)
	m := nn.NewModel(FeatureDim, 8, 1, rng.New(1))
	p := NewPredictor(m, trace.Egress, topo, Threshold, 1, 0)
	d1, _ := p.Predict(0, 0, 8, 100, false, topo.PathFor(0, 8, 1), macro.Minimal)
	p2 := NewPredictor(m, trace.Egress, topo, Threshold, 99, 0)
	d2, _ := p2.Predict(0, 0, 8, 100, false, topo.PathFor(0, 8, 1), macro.Minimal)
	if d1 != d2 {
		t.Error("Threshold policy varied with seed")
	}
}

// TestPredictDoesNotAllocate pins streaming inference: Predictor.Predict
// featurizes into a buffer it owns, so a packet allocates nothing.
func TestPredictDoesNotAllocate(t *testing.T) {
	topo := buildTopo(t)
	p := NewPredictor(nn.NewModel(FeatureDim, 8, 2, rng.New(1)), trace.Egress, topo, Sample, 1, 0)
	now := des.Time(0)
	path := topo.PathFor(0, 8, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		now += des.Microsecond
		p.Predict(now, 0, 8, 1500, false, path, macro.Minimal)
	}); allocs != 0 {
		t.Errorf("Predictor.Predict allocates %.1f objects per packet, want 0", allocs)
	}
}
