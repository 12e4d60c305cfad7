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
	FirstLoss float64 // mean loss over the first 10% of the configured batches
	LastLoss  float64 // mean loss over the last that many batches executed
	ValLoss   float64 // final validation loss (0 when validation disabled)
	Stopped   bool    // true if early stopping triggered
}

// sgd is the momentum optimizer state over one model's params.
type sgd struct {
	m      *Model
	ps     [][2][]float64
	lr, mu float64
	vel    [][]float64
}

func newSGD(m *Model, lr, mu float64) *sgd {
	o := &sgd{m: m, ps: m.params(), lr: lr, mu: mu}
	for _, p := range o.ps {
		o.vel = append(o.vel, make([]float64, len(p[0])))
	}
	return o
}

func (o *sgd) step(scale float64) {
	for pi, p := range o.ps {
		w, g, v := p[0], p[1], o.vel[pi]
		for i := range w {
			v[i] = o.mu*v[i] - o.lr*g[i]*scale
			w[i] += v[i]
		}
	}
	o.m.pack()
}

// clipGrads rescales the gradients of ps, a Model's params, to a maximum
// global L2 norm.
func clipGrads(ps [][2][]float64, maxNorm, scale float64) {
	var sq float64
	for _, p := range ps {
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
	for _, p := range ps {
		g := p[1]
		for i := range g {
			g[i] *= f
		}
	}
}

// Train fits the model to the example stream with windowed truncated BPTT.
// Each batch samples cfg.Batch windows of cfg.BPTT consecutive examples
// uniformly from data. It returns loss statistics; it panics if data is
// shorter than one window (a dataset that small is a harness bug). One
// window scratch serves every window, so without validation the number of
// allocations does not depend on cfg.Batches.
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
	ws := newWindowScratch(m, cfg.BPTT)

	var stats TrainStats
	tenth := cfg.Batches / 10
	if tenth == 0 {
		tenth = 1
	}
	losses := make([]float64, 0, cfg.Batches)
	bestVal := math.Inf(1)
	bad := 0

	for b := 0; b < cfg.Batches; b++ {
		zeroGrads(opt.ps)
		var batchLoss float64
		steps := 0
		for w := 0; w < cfg.Batch; w++ {
			start := src.Intn(len(data) - cfg.BPTT + 1)
			batchLoss += ws.bptt(data[start:start+cfg.BPTT], cfg.Alpha)
			steps += cfg.BPTT
		}
		scale := 1 / float64(steps)
		if cfg.Clip > 0 {
			// Clip the mean gradient: fold the scale in first so the clip
			// threshold is independent of batch geometry.
			clipGrads(opt.ps, cfg.Clip, scale)
			// clipGrads only rescales when over the limit; apply the mean
			// scale explicitly either way via the optimizer's scale.
		}
		opt.step(scale)
		losses = append(losses, batchLoss/float64(steps))

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
	stats.Batches = len(losses)
	// An early stop can come before the configured last tenth, so the last
	// tenth is that of the batches that ran.
	stats.FirstLoss = meanOf(losses[:min(tenth, len(losses))])
	stats.LastLoss = meanOf(losses[max(len(losses)-tenth, 0):])
	if len(val) > 0 && stats.ValLoss == 0 {
		stats.ValLoss = EvalLoss(m, val, cfg.Alpha)
	}
	return stats
}

// meanOf is the mean of v, summed in order; 0 when v is empty.
func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// windowScratch is the working memory of BPTT over windows of one length:
// the per-step caches of every layer, the gradient carries and the buffers
// in between. Train builds one and reuses it for every window, so training
// allocates nothing per window.
type windowScratch struct {
	m         *Model
	steps     [][]stepCache // [t][layer]
	zero      []float64     // the zero state every window starts from
	z         []float64     // gate pre-activations, then their gradients
	drop, lat []float64     // head outputs per step
	dh, dc    [][]float64   // per-layer gradient carries
	dx        []float64     // a layer's input gradient
	dTop      []float64     // the heads' gradient of the top layer's h
	dTopLat   []float64     // the latency head's share of it
}

// newWindowScratch sizes a scratch for m and windows of T steps.
func newWindowScratch(m *Model, T int) *windowScratch {
	H := m.Hidden
	ws := &windowScratch{
		m: m, zero: make([]float64, H), z: make([]float64, 4*H),
		drop: make([]float64, T), lat: make([]float64, T),
		dx: make([]float64, H), dTop: make([]float64, H), dTopLat: make([]float64, H),
	}
	caches := newStepCaches(T*m.Layers, H)
	for t := 0; t < T; t++ {
		ws.steps = append(ws.steps, caches[t*m.Layers:(t+1)*m.Layers])
	}
	for l := 0; l < m.Layers; l++ {
		ws.dh = append(ws.dh, make([]float64, H))
		ws.dc = append(ws.dc, make([]float64, H))
	}
	return ws
}

// addLoss returns loss plus the joint loss of one step with drop logit z
// and latency-head output lat (paper: L = L_drop + alpha * L_latency, with
// no latency error for dropped packets), added term by term.
func addLoss(loss, z, lat float64, ex Example, alpha float64) float64 {
	y := 0.0
	if ex.Dropped {
		y = 1
	}
	loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	if !ex.Dropped {
		d := lat - ex.Latency
		loss += alpha * d * d
	}
	return loss
}

// bptt runs one forward+backward pass over a window of exactly the
// scratch's length (state starts at zero) and returns the summed loss.
// Gradients accumulate into the model.
func (ws *windowScratch) bptt(window []Example, alpha float64) float64 {
	m := ws.m
	var out [1]float64
	var loss float64
	for t, ex := range window {
		cur := ex.X
		for l, layer := range m.lstm {
			hPrev, cPrev := ws.zero, ws.zero
			if t > 0 {
				hPrev, cPrev = ws.steps[t-1][l].h, ws.steps[t-1][l].c
			}
			sc := &ws.steps[t][l]
			layer.forwardInto(sc, cur, hPrev, cPrev, ws.z)
			cur = sc.h
		}
		m.DropHead.forwardInto(cur, out[:])
		ws.drop[t] = out[0]
		m.LatHead.forwardInto(cur, out[:])
		ws.lat[t] = out[0]
		loss = addLoss(loss, ws.drop[t], ws.lat[t], ex, alpha)
	}

	// Backward through time.
	for l := range ws.dh {
		clear(ws.dh[l])
		clear(ws.dc[l])
	}
	top := m.Layers - 1
	for t := len(window) - 1; t >= 0; t-- {
		ex := window[t]
		y := 0.0
		if ex.Dropped {
			y = 1
		}
		hTop := ws.steps[t][top].h
		out[0] = sigmoid(ws.drop[t]) - y
		m.DropHead.backwardInto(hTop, out[:], ws.dTop)
		if !ex.Dropped {
			out[0] = 2 * alpha * (ws.lat[t] - ex.Latency)
			m.LatHead.backwardInto(hTop, out[:], ws.dTopLat)
			for i := range ws.dTop {
				ws.dTop[i] += ws.dTopLat[i]
			}
		}
		// Descend the stack.
		dFromAbove := ws.dTop
		for l := top; l >= 0; l-- {
			dh := ws.dh[l]
			for i := range dh {
				dh[i] += dFromAbove[i]
			}
			dx := ws.dx
			if l == 0 {
				dx = nil
			}
			m.lstm[l].backwardInto(&ws.steps[t][l], dh, ws.dc[l], ws.z, dx)
			dFromAbove = dx
		}
	}
	return loss
}

// EvalLoss computes the mean joint loss of the model over data, running
// statefully from a zero state (no gradient accumulation). It steps the
// model as Predict does but reads the heads in Train's order.
func EvalLoss(m *Model, data []Example, alpha float64) float64 {
	if len(data) == 0 {
		return 0
	}
	st := m.NewState()
	var z, lat [1]float64
	var loss float64
	for _, ex := range data {
		cur := ex.X
		for l, layer := range m.lstm {
			layer.inferStep(cur, st.h[l], st.c[l], st.z)
			cur = st.h[l]
		}
		m.DropHead.forwardInto(cur, z[:])
		m.LatHead.forwardInto(cur, lat[:])
		loss = addLoss(loss, z[0], lat[0], ex, alpha)
	}
	return loss / float64(len(data))
}
