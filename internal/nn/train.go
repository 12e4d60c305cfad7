package nn

import (
	"fmt"
	"math"

	"approxsim/internal/rng"
)

// Example is one timestep of training data: an input feature vector and the
// joint label (was the packet dropped; if not, its normalized latency).
type Example struct {
	X       []float64
	Dropped bool
	Latency float64 // normalized; ignored when Dropped (no latency exists)
}

// TrainConfig mirrors the paper's training setup (§4.2): SGD with momentum
// (lr 1e-4, momentum 0.9), batches of windows, joint loss
// L = L_drop + Alpha * L_latency with the latency term masked on drops.
type TrainConfig struct {
	LR       float64 // default 0.0001 (paper)
	Momentum float64 // default 0.9 (paper)
	Alpha    float64 // default 0.5; paper: 0 < alpha <= 1
	Batches  int     // gradient steps (paper: >50,000; tests use far fewer)
	Batch    int     // windows per batch (paper: 64)
	BPTT     int     // window length for truncated BPTT (default 16)
	Clip     float64 // global-norm gradient clip (default 1.0; 0 disables)
	Seed     uint64
	// ValFraction holds out the last fraction of the data as a validation
	// stream (never sampled for training windows). 0 disables validation.
	ValFraction float64
	// Patience stops training early after this many consecutive validation
	// checks (one every Batches/10 steps) without improvement. 0 disables
	// early stopping. Requires ValFraction > 0.
	Patience int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.LR == 0 {
		c.LR = 1e-4
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Batches == 0 {
		c.Batches = 200
	}
	if c.Batch == 0 {
		c.Batch = 64
	}
	if c.BPTT == 0 {
		c.BPTT = 16
	}
	if c.Clip == 0 {
		c.Clip = 1.0
	}
	return c
}

// TrainStats summarizes a training run.
type TrainStats struct {
	Batches   int     // batches actually executed (<= configured on early stop)
	FirstLoss float64 // mean loss over the first 10% of batches
	LastLoss  float64 // mean loss over the last 10% of batches
	ValLoss   float64 // final validation loss (0 when validation disabled)
	Stopped   bool    // true if early stopping triggered
}

// sgd is the momentum optimizer state.
type sgd struct {
	lr, mu float64
	vel    [][]float64
}

func newSGD(m *Model, lr, mu float64) *sgd {
	o := &sgd{lr: lr, mu: mu}
	for _, p := range m.params() {
		o.vel = append(o.vel, make([]float64, len(p[0])))
	}
	return o
}

func (o *sgd) step(m *Model, scale float64) {
	for pi, p := range m.params() {
		w, g, v := p[0], p[1], o.vel[pi]
		for i := range w {
			v[i] = o.mu*v[i] - o.lr*g[i]*scale
			w[i] += v[i]
		}
	}
	m.pack()
}

// clipGrads rescales all gradients to a maximum global L2 norm.
func clipGrads(m *Model, maxNorm, scale float64) {
	var sq float64
	for _, p := range m.params() {
		for _, g := range p[1] {
			gg := g * scale
			sq += gg * gg
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return
	}
	f := maxNorm / norm
	for _, p := range m.params() {
		g := p[1]
		for i := range g {
			g[i] *= f
		}
	}
}

// Train fits the model to the example stream with windowed truncated BPTT.
// Each batch samples cfg.Batch windows of cfg.BPTT consecutive examples
// uniformly from data. It returns loss statistics; it panics if data is
// shorter than one window (a dataset that small is a harness bug).
func Train(m *Model, data []Example, cfg TrainConfig) TrainStats {
	cfg = cfg.withDefaults()
	var val []Example
	if cfg.ValFraction > 0 && cfg.ValFraction < 1 {
		cut := len(data) - int(float64(len(data))*cfg.ValFraction)
		if cut < cfg.BPTT {
			cut = cfg.BPTT
		}
		if cut < len(data) {
			val = data[cut:]
			data = data[:cut]
		}
	}
	if len(data) < cfg.BPTT {
		panic(fmt.Sprintf("nn: %d examples < one BPTT window of %d", len(data), cfg.BPTT))
	}
	src := rng.NewLabeled(cfg.Seed, "nn-train")
	opt := newSGD(m, cfg.LR, cfg.Momentum)

	stats := TrainStats{Batches: cfg.Batches}
	tenth := cfg.Batches / 10
	if tenth == 0 {
		tenth = 1
	}
	var firstSum, lastSum float64
	bestVal := math.Inf(1)
	bad := 0
	executed := 0

	for b := 0; b < cfg.Batches; b++ {
		executed++
		m.zeroGrads()
		var batchLoss float64
		steps := 0
		for w := 0; w < cfg.Batch; w++ {
			start := src.Intn(len(data) - cfg.BPTT + 1)
			batchLoss += m.bpttWindow(data[start:start+cfg.BPTT], cfg.Alpha)
			steps += cfg.BPTT
		}
		scale := 1 / float64(steps)
		if cfg.Clip > 0 {
			// Clip the mean gradient: fold the scale in first so the clip
			// threshold is independent of batch geometry.
			clipGrads(m, cfg.Clip, scale)
			// clipGrads only rescales when over the limit; apply the mean
			// scale explicitly either way via the optimizer's scale.
		}
		opt.step(m, scale)

		loss := batchLoss / float64(steps)
		if b < tenth {
			firstSum += loss
		}
		if b >= cfg.Batches-tenth {
			lastSum += loss
		}
		// Periodic validation check with early stopping.
		if len(val) > 0 && (b+1)%tenth == 0 {
			stats.ValLoss = EvalLoss(m, val, cfg.Alpha)
			if stats.ValLoss < bestVal-1e-9 {
				bestVal = stats.ValLoss
				bad = 0
			} else if cfg.Patience > 0 {
				bad++
				if bad >= cfg.Patience {
					stats.Stopped = true
					break
				}
			}
		}
	}
	stats.Batches = executed
	stats.FirstLoss = firstSum / float64(tenth)
	stats.LastLoss = lastSum / float64(tenth)
	if len(val) > 0 && stats.ValLoss == 0 {
		stats.ValLoss = EvalLoss(m, val, cfg.Alpha)
	}
	return stats
}

// bpttWindow runs one forward+backward pass over a window (state starts at
// zero) and returns the summed loss. Gradients accumulate into the model.
func (m *Model) bpttWindow(window []Example, alpha float64) float64 {
	T := len(window)
	// Forward, caching everything.
	caches := make([][]*stepCache, T) // [t][layer]
	tops := make([][]float64, T)      // top-layer h at each t
	dropLogits := make([]float64, T)  // drop-head outputs
	latOuts := make([]float64, T)     // latency-head outputs
	h := make([][]float64, m.Layers)  // running state
	c := make([][]float64, m.Layers)
	for l := 0; l < m.Layers; l++ {
		h[l] = make([]float64, m.Hidden)
		c[l] = make([]float64, m.Hidden)
	}
	var loss float64
	for t, ex := range window {
		caches[t] = make([]*stepCache, m.Layers)
		cur := ex.X
		for l, layer := range m.lstm {
			nh, nc, cache := layer.forward(cur, h[l], c[l])
			h[l], c[l] = nh, nc
			caches[t][l] = cache
			cur = nh
		}
		tops[t] = cur
		dropLogits[t] = m.DropHead.Forward(cur)[0]
		latOuts[t] = m.LatHead.Forward(cur)[0]

		// Joint loss (paper: L = L_drop + alpha * L_latency, with no
		// latency error back-propagated for dropped packets).
		y := 0.0
		if ex.Dropped {
			y = 1
		}
		z := dropLogits[t]
		loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		if !ex.Dropped {
			d := latOuts[t] - ex.Latency
			loss += alpha * d * d
		}
	}

	// Backward through time.
	dhCarry := make([][]float64, m.Layers)
	dcCarry := make([][]float64, m.Layers)
	for l := range dhCarry {
		dhCarry[l] = make([]float64, m.Hidden)
		dcCarry[l] = make([]float64, m.Hidden)
	}
	for t := T - 1; t >= 0; t-- {
		ex := window[t]
		y := 0.0
		if ex.Dropped {
			y = 1
		}
		dDrop := sigmoid(dropLogits[t]) - y
		dTop := m.DropHead.Backward(tops[t], []float64{dDrop})
		if !ex.Dropped {
			dLat := 2 * alpha * (latOuts[t] - ex.Latency)
			dTopLat := m.LatHead.Backward(tops[t], []float64{dLat})
			for i := range dTop {
				dTop[i] += dTopLat[i]
			}
		}
		// Descend the stack.
		dFromAbove := dTop
		for l := m.Layers - 1; l >= 0; l-- {
			dh := dhCarry[l]
			for i := range dh {
				dh[i] += dFromAbove[i]
			}
			dx, dhPrev, dcPrev := m.lstm[l].backward(caches[t][l], dh, dcCarry[l])
			dhCarry[l], dcCarry[l] = dhPrev, dcPrev
			dFromAbove = dx
		}
	}
	return loss
}

// EvalLoss computes the mean joint loss of the model over data, running
// statefully from a zero state (no gradient accumulation).
func EvalLoss(m *Model, data []Example, alpha float64) float64 {
	st := m.NewState()
	var loss float64
	n := 0
	for _, ex := range data {
		cur := ex.X
		for l, layer := range m.lstm {
			h, c, _ := layer.forward(cur, st.h[l], st.c[l])
			st.h[l], st.c[l] = h, c
			cur = h
		}
		z := m.DropHead.Forward(cur)[0]
		lat := m.LatHead.Forward(cur)[0]
		y := 0.0
		if ex.Dropped {
			y = 1
		}
		loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		if !ex.Dropped {
			d := lat - ex.Latency
			loss += alpha * d * d
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return loss / float64(n)
}
