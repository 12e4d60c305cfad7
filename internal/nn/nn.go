// Package nn is a from-scratch neural-network library sufficient to
// reproduce the paper's micro models: stacked LSTM layers (Hochreiter &
// Schmidhuber) feeding two fully connected heads — one predicting packet
// drop (binary cross-entropy on a logit) and one predicting latency (mean
// squared error) — trained jointly with truncated backpropagation through
// time and SGD with momentum, exactly the setup of §4.2 ("The
// multi-dimensional hidden state output from the LSTM is given to one fully
// connected layer to predict the latency and another ... to predict packet
// drop").
//
// The paper used PyTorch 0.4 via ATEN; this package is the pure-Go
// substitution. It trades GPU throughput for zero dependencies: the math is
// identical (same gates, same losses, same optimizer), only slower, so model
// sizes are configuration knobs rather than constants.
package nn

import (
	"math"

	"approxsim/internal/rng"
)

// tanh is a Padé(7,6) approximation of math.Tanh, clamped outside ~|x|>4.97
// where the true function is within 1e-4 of ±1. It is ~5x faster than the
// stdlib and smooth, which matters twice: activation evaluation dominates
// inference cost (hundreds of gate activations per packet prediction), and
// training back-propagates through the same approximation so gradients stay
// exactly consistent with the forward pass.
//
// It evaluates x*(135135 + x2*(17325 + x2*(378 + x2))) over
// 135135 + x2*(62370 + x2*(3150 + x2*28)) one rounded operation at a time:
// the float64 conversions forbid fusing a product into a multiply-add, so
// the result has the same bits on every GOARCH and the amd64 cell kernel
// (lstm_amd64.s) reproduces it lane by lane. NaN stays NaN; ±Inf gives ±1.
//
// The same rule holds for every product in this package that is added to or
// subtracted from something: it is rounded with float64(...) first. amd64
// fuses only an explicit math.FMA, so the conversions change no amd64 bits;
// arm64 and the others would fuse the product otherwise, and CI fails if
// the arm64 listing of this package holds a fused multiply-add.
func tanh(x float64) float64 {
	if x > 4.97 {
		return 1
	}
	if x < -4.97 {
		return -1
	}
	x2 := float64(x * x)
	a := 378 + x2
	a = 17325 + float64(x2*a)
	a = 135135 + float64(x2*a)
	a = x * a
	b := 3150 + float64(x2*28)
	b = 62370 + float64(x2*b)
	b = 135135 + float64(x2*b)
	return a / b
}

// sigmoid is the logistic function, expressed through tanh so it shares the
// fast approximation: sigma(x) = (1 + tanh(x/2)) / 2.
func sigmoid(x float64) float64 {
	return 0.5 + float64(0.5*tanh(0.5*x))
}

// dot is an unrolled dot product with a bounds-check hint; the row length
// always equals len(x) by construction. s0 sums the products at even indices
// and then the odd-length tail, s1 those at odd indices. The float64
// conversions round each product before it is added, which the Go spec says
// forbids fusing it into a multiply-add (arm64 would fuse it otherwise): the
// sum has the same bits on every GOARCH, and the amd64 kernel behind affine
// reproduces them.
func dot(row, x []float64) float64 {
	row = row[:len(x)]
	var s0, s1 float64
	i := 0
	for ; i+1 < len(x); i += 2 {
		s0 += float64(row[i] * x[i])
		s1 += float64(row[i+1] * x[i+1])
	}
	if i < len(x) {
		s0 += float64(row[i] * x[i])
	}
	return s0 + s1
}

// gates sets the LSTM gate pre-activations z[r] = (b[r] + Wx[r]·x) + Wh[r]·h
// for every row r of z. Training and inference both call it, so the two
// agree bit for bit.
func (l *lstmLayer) gates(z, x, h []float64) {
	affine(z, l.B, l.Wx, l.wxp, x)
	affine(z, z, l.Wh, l.whp, h)
}

// affine sets z[r] = b[r] + dot(w[r*n:(r+1)*n], v) with n = len(v). w is
// row-major and wp is its column-packed copy (packBlocks). With AVX2 the
// kernel does every whole block of 16 rows from wp; affineRows does the
// rest, and every row without AVX2. Both give the same bits. The lengths are
// checked here, before any row is touched, because the kernel does not check
// them.
func affine(z, b, w, wp, v []float64) {
	if len(b) != len(z) || len(w) != len(z)*len(v) || len(wp) != (len(z)&^15)*len(v) {
		panic("nn: gate weights, bias and output disagree in size")
	}
	from := 0
	if useAVX2 {
		affineAVX2(z, b, wp, v)
		from = len(z) &^ 15
	}
	affineRows(z, b, w, v, from)
}

// affineRows is the reference affine for rows from on: one dot per row.
func affineRows(z, b, w, v []float64, from int) {
	n := len(v)
	for r := from; r < len(z); r++ {
		z[r] = b[r] + dot(w[r*n:(r+1)*n], v)
	}
}

// packBlocks returns the column-packed copy of the whole 16-row blocks of w,
// a row-major matrix of the given rows and n columns, reusing dst's storage
// when it is large enough: wp[(blk*n+j)*16+r] = w[(blk*16+r)*n+j]. The rows
// past the last whole block are left out; affineRows reads them from w.
func packBlocks(dst, w []float64, rows, n int) []float64 {
	blocks := rows / 16
	if size := blocks * 16 * n; cap(dst) >= size {
		dst = dst[:size]
	} else {
		dst = make([]float64, size)
	}
	for blk := 0; blk < blocks; blk++ {
		for j := 0; j < n; j++ {
			col := dst[(blk*n+j)*16 : (blk*n+j+1)*16]
			for r := range col {
				col[r] = w[(blk*16+r)*n+j]
			}
		}
	}
	return dst
}

// cell applies the cell update to every hidden unit j. On entry z holds the
// gate pre-activations (gate-major, 4H); on return it holds the gates
// i = sigmoid(zi), f = sigmoid(zf), g = tanh(zg), o = sigmoid(zo), and
// c[j] = f*cPrev[j] + i*g, tc[j] = tanh(c[j]), h[j] = o*tc[j]. cPrev may be
// c itself. Backprop reads the gates and tc; Predict ignores them. With AVX2
// the kernel does every whole group of 4 units; cellRows does the rest, and
// every unit without AVX2. Both give the same bits.
func cell(z, cPrev, c, tc, h []float64) {
	if len(z) != 4*len(c) || len(cPrev) != len(c) || len(tc) != len(c) || len(h) != len(c) {
		panic("nn: cell state and gates disagree in size")
	}
	from := 0
	if useAVX2 {
		cellAVX2(z, cPrev, c, tc, h)
		from = len(c) &^ 3
	}
	cellRows(z, cPrev, c, tc, h, from)
}

// cellRows is the reference cell update for units from on. The float64
// conversions keep c's two products unfused, as in tanh.
func cellRows(z, cPrev, c, tc, h []float64, from int) {
	H := len(c)
	for j := from; j < H; j++ {
		ig := sigmoid(z[j])
		fg := sigmoid(z[H+j])
		gg := tanh(z[2*H+j])
		og := sigmoid(z[3*H+j])
		z[j], z[H+j], z[2*H+j], z[3*H+j] = ig, fg, gg, og
		c[j] = float64(fg*cPrev[j]) + float64(ig*gg)
		tc[j] = tanh(c[j])
		h[j] = og * tc[j]
	}
}

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	In, Out int
	W       []float64 // Out x In, row-major
	B       []float64 // Out

	dW, dB []float64
}

// NewDense creates a dense layer with Xavier/Glorot-uniform weights.
func NewDense(in, out int, src *rng.Source) *Dense {
	d := &Dense{
		In: in, Out: out,
		W: make([]float64, out*in), B: make([]float64, out),
		dW: make([]float64, out*in), dB: make([]float64, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	// src.Float64 returns a product: float64 rounds it, so that it cannot
	// fuse into 2u-1 (see tanh). newLSTMLayer does the same.
	for i := range d.W {
		d.W[i] = (2*float64(src.Float64()) - 1) * limit
	}
	return d
}

// forwardInto computes y = Wx + b. Each output sums its bias and products
// in index order, one after the other: training and validation read the
// heads through it, and the trained weights' bits depend on that order
// (dot's even/odd order, behind forward1, gives others).
func (d *Dense) forwardInto(x, y []float64) {
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += float64(row[i] * xi)
		}
		y[o] = sum
	}
}

// backwardInto accumulates the gradients given dy and the input x, and
// overwrites dx with the input gradient: every output's share added in
// turn to zero.
func (d *Dense) backwardInto(x, dy, dx []float64) {
	clear(dx)
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		d.dB[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.dW[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			grow[i] += float64(g * xi)
			dx[i] += float64(row[i] * g)
		}
	}
}

// lstmLayer is one LSTM layer. Weight rows are gate-major in the order
// input (i), forget (f), candidate (g), output (o).
type lstmLayer struct {
	In, Hidden int
	Wx         []float64 // 4H x In
	Wh         []float64 // 4H x H
	B          []float64 // 4H

	dWx, dWh, dB []float64

	// wxp and whp are Wx and Wh column-packed for the gate kernel
	// (packBlocks). pack rebuilds them; every write to Wx or Wh must be
	// followed by one.
	wxp, whp []float64
}

// pack rebuilds the packed copies of Wx and Wh.
func (l *lstmLayer) pack() {
	l.wxp = packBlocks(l.wxp, l.Wx, 4*l.Hidden, l.In)
	l.whp = packBlocks(l.whp, l.Wh, 4*l.Hidden, l.Hidden)
}

func newLSTMLayer(in, hidden int, src *rng.Source) *lstmLayer {
	l := &lstmLayer{
		In: in, Hidden: hidden,
		Wx: make([]float64, 4*hidden*in),
		Wh: make([]float64, 4*hidden*hidden),
		B:  make([]float64, 4*hidden),

		dWx: make([]float64, 4*hidden*in),
		dWh: make([]float64, 4*hidden*hidden),
		dB:  make([]float64, 4*hidden),
	}
	limX := math.Sqrt(6.0 / float64(in+hidden))
	for i := range l.Wx {
		l.Wx[i] = (2*float64(src.Float64()) - 1) * limX
	}
	limH := math.Sqrt(6.0 / float64(2*hidden))
	for i := range l.Wh {
		l.Wh[i] = (2*float64(src.Float64()) - 1) * limH
	}
	// Forget-gate bias starts at 1: the standard trick that lets gradients
	// flow early in training.
	for h := 0; h < hidden; h++ {
		l.B[hidden+h] = 1
	}
	l.pack()
	return l
}

// step advances the layer one timestep: it computes the gate
// pre-activations from x and hPrev into z, then applies the cell update
// from cPrev (see cell), leaving the gates in z and the new state in c,
// tc = tanh(c) and h. Training steps into a stepCache; Predict steps in
// place (h is hPrev, c is cPrev), which is safe because all of z depends
// only on the old h and is computed before h is written.
func (l *lstmLayer) step(x, hPrev, cPrev, z, c, tc, h []float64) {
	l.gates(z, x, hPrev)
	cell(z, cPrev, c, tc, h)
}

// stepCache holds what one layer's forward step leaves for backprop: its
// inputs (x, hPrev, cPrev, which belong to the layer below and the previous
// step) and its own activations and output.
type stepCache struct {
	x, hPrev, cPrev []float64
	gates           []float64 // post-activation gates i, f, g, o, gate-major (4H)
	c, tanhC, h     []float64
}

// newStepCaches returns n caches for hidden size H, their buffers cut from
// one allocation.
func newStepCaches(n, H int) []stepCache {
	buf := make([]float64, 7*H*n)
	next := func(size int) []float64 {
		v := buf[:size:size]
		buf = buf[size:]
		return v
	}
	caches := make([]stepCache, n)
	for k := range caches {
		sc := &caches[k]
		sc.gates = next(4 * H)
		sc.c, sc.tanhC, sc.h = next(H), next(H), next(H)
	}
	return caches
}

// backwardInto takes one step back through the layer and accumulates its
// weight gradients. On entry dh and dc are the gradients of the step's h
// and c; on return they are those of hPrev and cPrev. dz is scratch of size
// 4*Hidden. dx receives the gradient of x, unless it is empty: the bottom
// layer's input gradient has no reader.
func (l *lstmLayer) backwardInto(sc *stepCache, dh, dc, dz, dx []float64) {
	gateGrads(sc.gates, sc.tanhC, sc.cPrev, dh, dc, dz, l.dB)
	clear(dx)
	backRows(dz, l.Wx, l.dWx, sc.x, dx)
	clear(dh)
	backRows(dz, l.Wh, l.dWh, sc.hPrev, dh)
}

// gateGrads sets dz to the gradients of one step's gate pre-activations,
// adds each of them to the bias gradient dB, and turns dc from the gradient
// of the step's c into that of cPrev, given the step's gates a (gate-major
// i, f, g, o, as cell leaves them), tc = tanh(c), cPrev, and dh, the
// gradient of the step's h. A zero dz[r] is not added to dB[r], as in
// backRows. With AVX2 the kernel does every whole group of 4 units;
// gateGradsRows does the rest, and every unit without AVX2. Both give the
// same bits.
func gateGrads(a, tc, cPrev, dh, dc, dz, dB []float64) {
	H := len(tc)
	if len(a) != 4*H || len(dz) != 4*H || len(dB) != 4*H || len(cPrev) != H || len(dh) != H || len(dc) != H {
		panic("nn: gate gradients and step state disagree in size")
	}
	from := 0
	if useAVX2 {
		gateGradsAVX2(a, tc, cPrev, dh, dc, dz, dB)
		from = H &^ 3
	}
	gateGradsRows(a, tc, cPrev, dh, dc, dz, dB, from)
}

// gateGradsRows is the reference gateGrads for units from on. The float64
// conversions keep the two products that meet an addition or subtraction
// unfused, as in tanh.
func gateGradsRows(a, tc, cPrev, dh, dc, dz, dB []float64, from int) {
	H := len(tc)
	for j := from; j < H; j++ {
		i, f, g, o, t := a[j], a[H+j], a[2*H+j], a[3*H+j], tc[j]
		do := dh[j] * t
		dct := dc[j] + float64(dh[j]*o*(1-float64(t*t)))
		di := dct * g
		df := dct * cPrev[j]
		dg := dct * i
		dc[j] = dct * f

		dz[j] = di * i * (1 - i)
		dz[H+j] = df * f * (1 - f)
		dz[2*H+j] = dg * (1 - float64(g*g))
		dz[3*H+j] = do * o * (1 - o)
		for r := j; r < len(dz); r += H {
			if d := dz[r]; d != 0 {
				dB[r] += d
			}
		}
	}
}

// backRows accumulates one weight matrix's share of an LSTM step's
// backward pass. For every row r with g = dz[r] != 0, in row order, it adds
// g*v to row r of dw and, unless dx is empty, w's row r times g to dx; w
// and dw are row-major with n = len(v) columns. A zero g is skipped, not
// added: adding its +0 products would turn a -0 into +0. With AVX2 the
// kernel does every row; without, backRowsGo. Both give the same bits.
func backRows(dz, w, dw, v, dx []float64) {
	if len(w) != len(dz)*len(v) || len(dw) != len(w) || (len(dx) != 0 && len(dx) != len(v)) {
		panic("nn: backward weights, gradients and input disagree in size")
	}
	if useAVX2 {
		backRowsAVX2(dz, w, dw, v, dx)
		return
	}
	backRowsGo(dz, w, dw, v, dx)
}

// backRowsGo is the reference backRows. The float64 conversions keep every
// product unfused, as in dot.
func backRowsGo(dz, w, dw, v, dx []float64) {
	n := len(v)
	for r, g := range dz {
		if g == 0 {
			continue
		}
		grow := dw[r*n : (r+1)*n]
		for i, vi := range v {
			grow[i] += float64(g * vi)
		}
		if len(dx) == 0 {
			continue
		}
		row := w[r*n : (r+1)*n]
		for i, wi := range row {
			dx[i] += float64(wi * g)
		}
	}
}

// Model is the paper's micro-model architecture: a stacked LSTM whose final
// hidden state feeds a drop head (1 logit) and a latency head (1 value).
type Model struct {
	InDim, Hidden, Layers int
	lstm                  []*lstmLayer
	DropHead              *Dense
	LatHead               *Dense
}

// NewModel builds a model with the given input width, hidden size, and
// number of stacked LSTM layers. The paper's prototype is layers=2,
// hidden=128 (§7); tests use smaller sizes.
func NewModel(inDim, hidden, layers int, src *rng.Source) *Model {
	if inDim <= 0 || hidden <= 0 || layers <= 0 {
		panic("nn: model dimensions must be positive")
	}
	m := &Model{InDim: inDim, Hidden: hidden, Layers: layers}
	for l := 0; l < layers; l++ {
		in := inDim
		if l > 0 {
			in = hidden
		}
		m.lstm = append(m.lstm, newLSTMLayer(in, hidden, src))
	}
	m.DropHead = NewDense(hidden, 1, src)
	m.LatHead = NewDense(hidden, 1, src)
	return m
}

// State is the recurrent state of a Model mid-sequence, plus the scratch
// space that keeps inference allocation-free (every boundary packet in a
// hybrid simulation costs one Predict, so this path is hot).
type State struct {
	h, c [][]float64
	z    []float64 // gate scratch, 4*Hidden
	tc   []float64 // tanh(c) scratch, Hidden: the cell writes it, Predict never reads it
}

// NewState returns zeroed recurrent state.
func (m *Model) NewState() *State {
	st := &State{z: make([]float64, 4*m.Hidden), tc: make([]float64, m.Hidden)}
	for l := 0; l < m.Layers; l++ {
		st.h = append(st.h, make([]float64, m.Hidden))
		st.c = append(st.c, make([]float64, m.Hidden))
	}
	return st
}

// Predict runs one input through the model, updating st in place, and
// returns the drop probability and the raw latency-head output. It performs
// no heap allocation. It panics if len(x) != m.InDim, as NewModel panics on
// bad dimensions: a wrong-width input is a caller bug, not data.
func (m *Model) Predict(x []float64, st *State) (dropProb, latency float64) {
	if len(x) != m.InDim {
		panic("nn: Predict input width differs from the model's InDim")
	}
	cur := x
	for l, layer := range m.lstm {
		layer.step(cur, st.h[l], st.c[l], st.z, st.c[l], st.tc, st.h[l])
		cur = st.h[l]
	}
	return sigmoid(m.DropHead.forward1(cur)), m.LatHead.forward1(cur)
}

// forward1 is Forward for the common Out==1 head, without allocating.
func (d *Dense) forward1(x []float64) float64 {
	return d.B[0] + dot(d.W, x)
}

// params enumerates every (weights, grads) pair for the optimizer.
func (m *Model) params() [][2][]float64 {
	var ps [][2][]float64
	for _, l := range m.lstm {
		ps = append(ps,
			[2][]float64{l.Wx, l.dWx},
			[2][]float64{l.Wh, l.dWh},
			[2][]float64{l.B, l.dB})
	}
	ps = append(ps,
		[2][]float64{m.DropHead.W, m.DropHead.dW},
		[2][]float64{m.DropHead.B, m.DropHead.dB},
		[2][]float64{m.LatHead.W, m.LatHead.dW},
		[2][]float64{m.LatHead.B, m.LatHead.dB})
	return ps
}

// pack rebuilds every layer's packed weights; call it after the weights
// change.
func (m *Model) pack() {
	for _, l := range m.lstm {
		l.pack()
	}
}

// zeroGrads clears the gradients of ps, a Model's params.
func zeroGrads(ps [][2][]float64) {
	for _, p := range ps {
		clear(p[1])
	}
}

// NumParams returns the trainable parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params() {
		n += len(p[0])
	}
	return n
}
