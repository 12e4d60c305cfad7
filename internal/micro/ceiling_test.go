package micro

import (
	"math"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/nn"
	"approxsim/internal/rng"
	"approxsim/internal/trace"
)

func TestLatencyCeilingClampsWildPredictions(t *testing.T) {
	topo := buildTopo(t)
	m := nn.NewModel(FeatureDim, 4, 1, rng.New(1))
	// Force an absurd latency-head output: bias 5 denormalizes to ~e^92 ns.
	m.LatHead.B[0] = 5
	p := NewPredictor(m, trace.Egress, topo, Threshold, 1, des.Microsecond)
	_, lat := p.Predict(0, 0, 8, 100, false, topo.PathFor(0, 8, 1), macro.Minimal)
	if lat > p.LatencyCeiling {
		t.Errorf("latency %v exceeds ceiling %v", lat, p.LatencyCeiling)
	}
	if p.LatencyCeiling != 100*des.Millisecond {
		t.Errorf("default ceiling = %v, want 100ms", p.LatencyCeiling)
	}
}

// TestExplodingLatencyHeadHitsCeiling drives latency-head outputs past
// int64 nanoseconds (y ≳ 2.37), +Inf and NaN through Predict: each must
// saturate to the ceiling, never wrap around to the floor.
func TestExplodingLatencyHeadHitsCeiling(t *testing.T) {
	topo := buildTopo(t)
	for _, y := range []float64{2.5, 10, math.Inf(1), math.NaN()} {
		if got := DenormalizeLatency(y); got != des.MaxTime {
			t.Errorf("DenormalizeLatency(%v) = %v, want des.MaxTime", y, got)
		}
		m := nn.NewModel(FeatureDim, 4, 1, rng.New(1))
		for i := range m.LatHead.W {
			m.LatHead.W[i] = 0
		}
		m.LatHead.B[0] = y
		p := NewPredictor(m, trace.Egress, topo, Threshold, 1, des.Microsecond)
		if _, lat := p.Predict(0, 0, 8, 100, false, topo.PathFor(0, 8, 1), macro.Minimal); lat != p.LatencyCeiling {
			t.Errorf("latency head %v: Predict latency %v, want the ceiling %v", y, lat, p.LatencyCeiling)
		}
	}
}

func TestNoMacroTrainingArm(t *testing.T) {
	topo, records := captureTraining(t, 4)
	p, stats, err := Train(topo, trace.Egress, records, TrainConfig{
		Hidden: 8, Layers: 1, NoMacro: true,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 30, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastLoss >= stats.FirstLoss {
		t.Errorf("ablated training loss did not fall: %v -> %v", stats.FirstLoss, stats.LastLoss)
	}
	// Predictions still behave.
	drop, lat := p.Predict(0, 0, 8, 100, false, topo.PathFor(0, 8, 1), macro.Minimal)
	if !drop && (lat < p.LatencyFloor || lat > p.LatencyCeiling) {
		t.Errorf("ablated predictor latency %v outside [%v, %v]", lat, p.LatencyFloor, p.LatencyCeiling)
	}
}

func TestFeaturizerDeterministic(t *testing.T) {
	topo := buildTopo(t)
	run := func() []float64 {
		f := NewFeaturizer(topo)
		var out []float64
		for i := 0; i < 20; i++ {
			x := f.Features(des.Time(i)*1000, 0, 8, uint64(i), 500, i%2 == 0, macro.State(i%4))
			out = append(out, x...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("featurizer not deterministic at element %d", i)
		}
	}
}
