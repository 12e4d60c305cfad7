package nn

import (
	"bytes"
	"math"
	"testing"

	"approxsim/internal/rng"
)

func TestSigmoid(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{100, 1},
		{-100, 0},
	}
	for _, c := range cases {
		if got := sigmoid(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float64{0.3, 1.7, 5} {
		if d := sigmoid(-x) + sigmoid(x) - 1; math.Abs(d) > 1e-12 {
			t.Errorf("sigmoid symmetry broken at %v: %v", x, d)
		}
	}
}

func TestDenseForward(t *testing.T) {
	d := &Dense{In: 2, Out: 2,
		W:  []float64{1, 2, 3, 4},
		B:  []float64{10, 20},
		dW: make([]float64, 4), dB: make([]float64, 2),
	}
	y := make([]float64, 2)
	d.forwardInto([]float64{1, 1}, y)
	if y[0] != 13 || y[1] != 27 {
		t.Errorf("forwardInto = %v, want [13 27]", y)
	}
}

func TestDenseBackwardGradcheck(t *testing.T) {
	src := rng.New(1)
	d := NewDense(3, 2, src)
	x := []float64{0.5, -1.2, 0.3}
	// Scalar objective: sum of outputs squared.
	y := make([]float64, 2)
	obj := func() float64 {
		d.forwardInto(x, y)
		return y[0]*y[0] + y[1]*y[1]
	}
	d.forwardInto(x, y)
	dx := make([]float64, 3)
	d.backwardInto(x, []float64{2 * y[0], 2 * y[1]}, dx)
	const eps = 1e-6
	// Check dW numerically.
	for i := range d.W {
		old := d.W[i]
		d.W[i] = old + eps
		up := obj()
		d.W[i] = old - eps
		down := obj()
		d.W[i] = old
		num := (up - down) / (2 * eps)
		if math.Abs(num-d.dW[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dW[%d]: analytic %v vs numeric %v", i, d.dW[i], num)
		}
	}
	// Check dx numerically.
	for i := range x {
		old := x[i]
		x[i] = old + eps
		up := obj()
		x[i] = old - eps
		down := obj()
		x[i] = old
		num := (up - down) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx[i], num)
		}
	}
}

// TestLSTMGradcheck verifies the hand-derived BPTT gradients against finite
// differences over a short window with the full joint loss. This is the
// single most important test in the package: if it passes, training is
// computing true gradients.
func TestLSTMGradcheck(t *testing.T) {
	src := rng.New(7)
	m := NewModel(3, 4, 2, src)
	window := []Example{
		{X: []float64{0.1, -0.2, 0.3}, Dropped: false, Latency: 0.7},
		{X: []float64{0.5, 0.1, -0.4}, Dropped: true},
		{X: []float64{-0.3, 0.8, 0.2}, Dropped: false, Latency: -0.2},
		{X: []float64{0.9, -0.5, 0.1}, Dropped: false, Latency: 0.4},
	}
	const alpha = 0.5
	zeroGrads(m.params())
	newWindowScratch(m, len(window)).bptt(window, alpha)

	// The summed loss of a fresh forward pass from the zero state, as bptt
	// runs it.
	lossOf := func() float64 {
		return EvalLoss(m, window, alpha) * float64(len(window))
	}

	const eps = 1e-6
	checked := 0
	for pi, p := range m.params() {
		w, g := p[0], p[1]
		// Check a deterministic subset of each tensor (full check is slow).
		stride := len(w)/7 + 1
		for i := 0; i < len(w); i += stride {
			// The forward pass reads the packed copies of the LSTM
			// weights, so every direct write re-packs them.
			set := func(v float64) {
				w[i] = v
				m.pack()
			}
			old := w[i]
			set(old + eps)
			up := lossOf()
			set(old - eps)
			down := lossOf()
			set(old)
			num := (up - down) / (2 * eps)
			if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %d index %d: analytic %v vs numeric %v", pi, i, g[i], num)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("gradcheck covered only %d weights", checked)
	}
}

func TestModelStatePropagation(t *testing.T) {
	src := rng.New(2)
	m := NewModel(2, 8, 2, src)
	st := m.NewState()
	x := []float64{1, -1}
	p1, _ := m.Predict(x, st)
	p2, _ := m.Predict(x, st)
	// With recurrent state, the same input generally yields different
	// outputs on consecutive steps.
	if p1 == p2 {
		t.Error("state appears not to propagate between Predict calls")
	}
	// A fresh state must reproduce the first output exactly.
	st2 := m.NewState()
	p1b, _ := m.Predict(x, st2)
	if p1 != p1b {
		t.Error("fresh state did not reproduce first prediction")
	}
}

func TestPredictProbabilityRange(t *testing.T) {
	src := rng.New(3)
	m := NewModel(4, 8, 1, src)
	st := m.NewState()
	r := rng.New(9)
	for i := 0; i < 200; i++ {
		x := []float64{r.Normal(0, 2), r.Normal(0, 2), r.Float64(), r.Float64()}
		p, _ := m.Predict(x, st)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("drop probability %v out of range", p)
		}
	}
}

// TestTrainingLearnsDropRule: the model must learn a synthetic rule — drop
// iff x[0] > 0.5 — far above chance, and the loss must fall.
func TestTrainingLearnsDropRule(t *testing.T) {
	src := rng.New(11)
	var data []Example
	for i := 0; i < 3000; i++ {
		x := []float64{src.Float64(), src.Float64()}
		data = append(data, Example{X: x, Dropped: x[0] > 0.5, Latency: 0.5})
	}
	m := NewModel(2, 12, 1, rng.New(5))
	stats := Train(m, data, TrainConfig{
		LR: 0.05, Batches: 150, Batch: 16, BPTT: 8, Seed: 1,
	})
	if stats.LastLoss >= stats.FirstLoss {
		t.Errorf("loss did not decrease: first %v last %v", stats.FirstLoss, stats.LastLoss)
	}
	// Evaluate accuracy statefully.
	st := m.NewState()
	correct, total := 0, 0
	for i := 0; i < 500; i++ {
		x := []float64{src.Float64(), src.Float64()}
		p, _ := m.Predict(x, st)
		want := x[0] > 0.5
		if (p > 0.5) == want {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Errorf("drop-rule accuracy %.2f < 0.8", acc)
	}
}

// TestTrainingLearnsLatencyRegression: latency = 0.8*x[0] + 0.1, no drops.
func TestTrainingLearnsLatencyRegression(t *testing.T) {
	src := rng.New(13)
	var data []Example
	for i := 0; i < 3000; i++ {
		x := []float64{src.Float64()}
		data = append(data, Example{X: x, Latency: 0.8*x[0] + 0.1})
	}
	m := NewModel(1, 10, 1, rng.New(6))
	Train(m, data, TrainConfig{
		LR: 0.05, Alpha: 1.0, Batches: 200, Batch: 16, BPTT: 8, Seed: 2,
	})
	st := m.NewState()
	var sumErr float64
	const n = 300
	for i := 0; i < n; i++ {
		x := []float64{src.Float64()}
		_, lat := m.Predict(x, st)
		want := 0.8*x[0] + 0.1
		sumErr += math.Abs(lat - want)
	}
	if mae := sumErr / n; mae > 0.1 {
		t.Errorf("latency MAE %.3f > 0.1 after training", mae)
	}
}

// TestTrainingLearnsTemporalPattern: drop depends on the PREVIOUS input
// (x[0] of step t-1 > 0.5) — only a recurrent model can learn it.
func TestTrainingLearnsTemporalPattern(t *testing.T) {
	src := rng.New(17)
	var data []Example
	prev := 0.0
	for i := 0; i < 4000; i++ {
		x := []float64{src.Float64()}
		data = append(data, Example{X: x, Dropped: prev > 0.5, Latency: 0.3})
		prev = x[0]
	}
	m := NewModel(1, 16, 1, rng.New(8))
	Train(m, data, TrainConfig{
		LR: 0.08, Batches: 250, Batch: 16, BPTT: 8, Seed: 3,
	})
	st := m.NewState()
	correct, total := 0, 0
	prev = 0
	for i := 0; i < 600; i++ {
		x := []float64{src.Float64()}
		p, _ := m.Predict(x, st)
		if i > 0 { // first prediction has no previous input
			if (p > 0.5) == (prev > 0.5) {
				correct++
			}
			total++
		}
		prev = x[0]
	}
	acc := float64(correct) / float64(total)
	if acc < 0.75 {
		t.Errorf("temporal accuracy %.2f < 0.75: LSTM memory not working", acc)
	}
}

func TestEvalLoss(t *testing.T) {
	m := NewModel(2, 4, 1, rng.New(1))
	data := []Example{
		{X: []float64{0, 0}, Latency: 0.5},
		{X: []float64{1, 1}, Dropped: true},
	}
	l := EvalLoss(m, data, 0.5)
	if l <= 0 || math.IsNaN(l) {
		t.Errorf("EvalLoss = %v", l)
	}
	if EvalLoss(m, nil, 0.5) != 0 {
		t.Error("empty EvalLoss should be 0")
	}
}

func TestTrainPanicsOnTinyData(t *testing.T) {
	m := NewModel(1, 4, 1, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Train on too-small dataset did not panic")
		}
	}()
	Train(m, []Example{{X: []float64{1}}}, TrainConfig{BPTT: 16})
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(5, 6, 2, rng.New(21))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.InDim != 5 || m2.Hidden != 6 || m2.Layers != 2 {
		t.Fatalf("loaded dims wrong: %+v", m2)
	}
	// Same predictions on the same input stream.
	st1, st2 := m.NewState(), m2.NewState()
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = r.Normal(0, 1)
		}
		p1, l1 := m.Predict(x, st1)
		p2, l2 := m2.Predict(x, st2)
		if p1 != p2 || l1 != l2 {
			t.Fatalf("loaded model diverges at step %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestNumParams(t *testing.T) {
	m := NewModel(3, 4, 2, rng.New(1))
	// Layer 1: 4*4*(3+4)+16 = 128; layer 2: 4*4*(4+4)+16 = 144;
	// heads: 2*(4+1) = 10. Total 282.
	if got := m.NumParams(); got != 282 {
		t.Errorf("NumParams = %d, want 282", got)
	}
}

func TestGradClipBoundsNorm(t *testing.T) {
	m := NewModel(2, 4, 1, rng.New(2))
	zeroGrads(m.params())
	// Inject huge gradients.
	for _, p := range m.params() {
		for i := range p[1] {
			p[1][i] = 1000
		}
	}
	clipGrads(m.params(), 1.0, 1.0)
	var sq float64
	for _, p := range m.params() {
		for _, g := range p[1] {
			sq += g * g
		}
	}
	if norm := math.Sqrt(sq); norm > 1.0+1e-9 {
		t.Errorf("clipped norm = %v > 1", norm)
	}
}

func BenchmarkPredictHidden32(b *testing.B) {
	m := NewModel(12, 32, 2, rng.New(1))
	st := m.NewState()
	x := make([]float64, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x, st)
	}
}

func BenchmarkPredictHidden128(b *testing.B) {
	// The paper's full-size micro model (2x128).
	m := NewModel(12, 128, 2, rng.New(1))
	st := m.NewState()
	x := make([]float64, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x, st)
	}
}

func BenchmarkTrainBatch(b *testing.B) {
	src := rng.New(1)
	var data []Example
	for i := 0; i < 2000; i++ {
		data = append(data, Example{X: []float64{src.Float64(), src.Float64()}, Latency: 0.5})
	}
	m := NewModel(2, 32, 2, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, data, TrainConfig{Batches: 1, Batch: 8, BPTT: 16, Seed: uint64(i)})
	}
}

func TestValidationAndEarlyStopping(t *testing.T) {
	src := rng.New(31)
	var data []Example
	for i := 0; i < 2000; i++ {
		x := []float64{src.Float64()}
		data = append(data, Example{X: x, Latency: 0.6 * x[0]})
	}
	m := NewModel(1, 8, 1, rng.New(7))
	stats := Train(m, data, TrainConfig{
		LR: 0.05, Alpha: 1.0, Batches: 400, Batch: 8, BPTT: 8, Seed: 1,
		ValFraction: 0.2, Patience: 2,
	})
	if stats.ValLoss <= 0 {
		t.Error("validation loss not computed")
	}
	// On this trivially learnable task, either it converges and early-stops
	// or runs to completion with a low validation loss.
	if stats.Stopped && stats.Batches >= 400 {
		t.Error("Stopped set but all batches ran")
	}
	if !stats.Stopped && stats.Batches != 400 {
		t.Errorf("no early stop but only %d batches executed", stats.Batches)
	}
	if stats.ValLoss > 1.0 {
		t.Errorf("validation loss %v did not come down", stats.ValLoss)
	}

	// A learning rate this small cannot improve the validation loss, so
	// patience 1 is sure to stop at the second check, long before the
	// configured last tenth of batches. LastLoss must average the last
	// batches that ran, not the ones that never did.
	m = NewModel(1, 8, 1, rng.New(7))
	stats = Train(m, data, TrainConfig{
		LR: 1e-300, Alpha: 1.0, Batches: 400, Batch: 8, BPTT: 8, Seed: 1,
		ValFraction: 0.2, Patience: 1,
	})
	if !stats.Stopped || stats.Batches != 80 {
		t.Fatalf("Stopped=%v after %d batches, want an early stop after 80", stats.Stopped, stats.Batches)
	}
	if !(stats.FirstLoss > 0) || !(stats.LastLoss > 0) {
		t.Errorf("FirstLoss %v, LastLoss %v after an early stop; both must be positive", stats.FirstLoss, stats.LastLoss)
	}
}

// TestTrainAllocationsDoNotGrow checks that BPTT reuses its scratch: ten
// batches allocate as many times as one.
func TestTrainAllocationsDoNotGrow(t *testing.T) {
	data := goldenData(200, 5, 1)
	forEachKernel(t, func(t *testing.T) {
		m := NewModel(5, 8, 2, rng.New(1))
		allocs := func(batches int) float64 {
			return testing.AllocsPerRun(3, func() {
				Train(m, data, TrainConfig{LR: 0.01, Batches: batches, Batch: 4, BPTT: 8, Seed: 1})
			})
		}
		if one, ten := allocs(1), allocs(10); one != ten {
			t.Errorf("Train allocated %v times for 1 batch and %v for 10", one, ten)
		}
	})
}

func TestValidationHoldoutNotTrainedOn(t *testing.T) {
	// With ValFraction nearly 1, almost no training data remains; the run
	// must still work on the clamped minimum window.
	src := rng.New(33)
	var data []Example
	for i := 0; i < 100; i++ {
		data = append(data, Example{X: []float64{src.Float64()}, Latency: 0.5})
	}
	m := NewModel(1, 4, 1, rng.New(8))
	stats := Train(m, data, TrainConfig{
		Batches: 10, Batch: 4, BPTT: 8, Seed: 2, ValFraction: 0.95,
	})
	if stats.ValLoss <= 0 {
		t.Error("validation never evaluated")
	}
}
