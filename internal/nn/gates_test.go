package nn

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"approxsim/internal/rng"
)

// gatesRef is gates computed by the Go reference loop alone.
func gatesRef(z, b, wx, x, wh, h []float64) {
	affineRows(z, b, wx, x, 0)
	affineRows(z, z, wh, h, 0)
}

// sameBits reports whether a and b are the same float64 bit for bit; any two
// NaNs count as the same, since NaN payloads are not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// randVec returns n values drawn from the class mix picks: 0 ordinary
// weights and activations, 1 a blend with ±0 and subnormals, 2 large
// magnitudes that overflow to ±Inf and NaN in the sums, 3 any of those per
// element.
func randVec(src *rng.Source, n int, mix uint8) []float64 {
	v := make([]float64, n)
	for i := range v {
		class := mix % 4
		if class == 3 {
			class = uint8(src.Intn(3))
		}
		sign := 1.0
		if src.Intn(2) == 0 {
			sign = -1
		}
		switch {
		case class == 1 && src.Intn(3) == 0:
			v[i] = math.Copysign(0, sign)
		case class == 1 && src.Intn(2) == 0:
			v[i] = sign * math.Float64frombits(src.Uint64()&(1<<52-1)) // subnormal
		case class == 2:
			v[i] = sign * math.Pow(10, 150+150*src.Float64())
		default:
			v[i] = src.Normal(0, 1)
		}
	}
	return v
}

// haveAVX2 reports whether this CPU can run the AVX2 kernels.
var haveAVX2 = cpuHasAVX2()

// withKernel runs fn with the AVX2 kernels on or off, then restores the
// dispatch. Tests that use it must not run in parallel.
func withKernel(avx2 bool, fn func()) {
	saved := useAVX2
	useAVX2 = avx2
	defer func() { useAVX2 = saved }()
	fn()
}

// forEachKernel runs fn as one subtest on the AVX2 path (skipped without
// AVX2) and one with the Go loop forced.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, avx2 := range []bool{true, false} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !haveAVX2 {
				t.Skip("CPU has no AVX2")
			}
			withKernel(avx2, func() { fn(t) })
		})
	}
}

// fuzzKernels runs fn on every dispatch this CPU can run, for fuzz targets,
// whose inputs run without subtests.
func fuzzKernels(fn func()) {
	if haveAVX2 {
		withKernel(true, fn)
	}
	withKernel(false, fn)
}

// checkGates compares gates with gatesRef bit for bit on one random problem
// with the given input width and hidden size, then the cell update on top
// of them with cellRows: the gates it stores in z, c, tanh(c) and h.
func checkGates(t *testing.T, seed uint64, in, hid int, mix uint8) {
	t.Helper()
	src := rng.New(seed)
	rows := 4 * hid
	l := &lstmLayer{In: in, Hidden: hid}
	l.B = randVec(src, rows, mix)
	l.Wx = randVec(src, rows*in, mix)
	x := randVec(src, in, mix)
	l.Wh = randVec(src, rows*hid, mix)
	h := randVec(src, hid, mix)
	cPrev := randVec(src, hid, mix)
	l.pack()
	got, want := make([]float64, rows), make([]float64, rows)
	l.gates(got, x, h)
	gatesRef(want, l.B, l.Wx, x, l.Wh, h)
	compare := func(what string, got, want []float64) {
		t.Helper()
		for r := range got {
			if !sameBits(got[r], want[r]) {
				t.Fatalf("avx2=%v In=%d H=%d mix=%d seed=%d: %s[%d] = %v (%#x), reference %v (%#x)", useAVX2, in, hid, mix, seed,
					what, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
			}
		}
	}
	compare("z", got, want)
	gotC, gotTC, gotH := make([]float64, hid), make([]float64, hid), make([]float64, hid)
	wantC, wantTC, wantH := make([]float64, hid), make([]float64, hid), make([]float64, hid)
	cell(got, cPrev, gotC, gotTC, gotH)
	cellRows(want, cPrev, wantC, wantTC, wantH, 0)
	compare("gates", got, want)
	compare("c", gotC, wantC)
	compare("tanh(c)", gotTC, wantTC)
	compare("h", gotH, wantH)
}

func TestGatesMatchReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		seed := uint64(1)
		for _, in := range []int{0, 1, 2, 7, 13, 16, 128} {
			for _, hid := range []int{1, 2, 3, 4, 5, 16, 20, 32, 128} {
				for mix := uint8(0); mix < 4; mix++ {
					checkGates(t, seed, in, hid, mix)
					seed++
				}
			}
		}
	})
}

// FuzzGates checks the gate kernel against the Go reference bit for bit over
// random input widths (odd ones included) and hidden sizes (H=1 included),
// with ±0, subnormals and large magnitudes in the mix.
func FuzzGates(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(16), uint8(0))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(7), uint8(3), uint8(2))
	f.Add(uint64(4), uint8(128), uint8(128), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, in, hid, mix uint8) {
		fuzzKernels(func() { checkGates(t, seed, int(in%129), int(hid%129)+1, mix) })
	})
}

// cellInputs returns n values for the cell update, each drawn from the
// values where tanh and sigmoid change branch — ±4.97 and, for sigmoid's
// 0.5*x, ±9.94, each with its float neighbours — and ±Inf, NaN, ±0, ±the
// smallest subnormal, a, b and ordinary values.
func cellInputs(src *rng.Source, n int, a, b float64) []float64 {
	var pool []float64
	for _, edge := range []float64{4.97, 2 * 4.97} {
		for _, e := range []float64{edge, -edge} {
			pool = append(pool, e, math.Nextafter(e, math.Inf(1)), math.Nextafter(e, math.Inf(-1)))
		}
	}
	tiny := math.Float64frombits(1)
	pool = append(pool, math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), tiny, -tiny, a, b)
	v := make([]float64, n)
	for i := range v {
		if k := src.Intn(len(pool) + 4); k < len(pool) {
			v[i] = pool[k]
		} else {
			v[i] = src.Normal(0, 5)
		}
	}
	return v
}

// FuzzLSTMStep checks the cell update of one LSTM step against the Go
// reference bit for bit: the gates it stores over z (i, f, g, o), c,
// tanh(c) and h, at the activations' clamp edges and on non-finite, zero
// and subnormal inputs. It steps in place, as Predict does (c is cPrev).
// FuzzGates covers the gate half of the step.
func FuzzLSTMStep(f *testing.F) {
	f.Add(uint64(1), uint8(16), 4.97, -4.97)
	f.Add(uint64(2), uint8(5), math.Inf(1), math.NaN())
	f.Add(uint64(3), uint8(4), math.Copysign(0, -1), math.Float64frombits(1))
	f.Add(uint64(4), uint8(20), 9.94, 0.5)
	f.Fuzz(func(t *testing.T, seed uint64, hid uint8, a, b float64) {
		H := int(hid%64) + 1
		src := rng.New(seed)
		z0 := cellInputs(src, 4*H, a, b)
		c0 := cellInputs(src, H, a, b)
		wantZ, wantC := append([]float64(nil), z0...), append([]float64(nil), c0...)
		wantTC, wantH := make([]float64, H), make([]float64, H)
		cellRows(wantZ, wantC, wantC, wantTC, wantH, 0)
		fuzzKernels(func() {
			gotZ, gotC := append([]float64(nil), z0...), append([]float64(nil), c0...)
			gotTC, gotH := make([]float64, H), make([]float64, H)
			cell(gotZ, gotC, gotC, gotTC, gotH)
			for j := range gotC {
				same := sameBits(gotC[j], wantC[j]) && sameBits(gotTC[j], wantTC[j]) && sameBits(gotH[j], wantH[j])
				for k := 0; k < 4; k++ {
					same = same && sameBits(gotZ[k*H+j], wantZ[k*H+j])
				}
				if !same {
					t.Fatalf("avx2=%v H=%d unit %d: z=(%v %v %v %v) c=%v: got gates (%v %v %v %v) c=%v tanh(c)=%v h=%v, "+
						"reference gates (%v %v %v %v) c=%v tanh(c)=%v h=%v", useAVX2, H, j,
						z0[j], z0[H+j], z0[2*H+j], z0[3*H+j], c0[j],
						gotZ[j], gotZ[H+j], gotZ[2*H+j], gotZ[3*H+j], gotC[j], gotTC[j], gotH[j],
						wantZ[j], wantZ[H+j], wantZ[2*H+j], wantZ[3*H+j], wantC[j], wantTC[j], wantH[j])
				}
			}
		})
	})
}

// predictRef is Predict with every gate and cell update computed by the Go
// reference loop.
func predictRef(m *Model, x []float64, st *State) (dropProb, latency float64) {
	cur := x
	for l, layer := range m.lstm {
		h, c, z := st.h[l], st.c[l], st.z
		gatesRef(z, layer.B, layer.Wx, cur, layer.Wh, h)
		cellRows(z, c, c, st.tc, h, 0)
		cur = h
	}
	return sigmoid(m.DropHead.forward1(cur)), m.LatHead.forward1(cur)
}

// checkPredictSequence runs 1,000 predictions through m and the reference
// side by side, so any difference in one step's bits would also show in
// the recurrent state it leaves behind.
func checkPredictSequence(t *testing.T, m *Model, what string) {
	t.Helper()
	got, want := m.NewState(), m.NewState()
	src := rng.New(7)
	x := make([]float64, m.InDim)
	for step := 0; step < 1000; step++ {
		for i := range x {
			x[i] = src.Normal(0, 1+float64(i))
		}
		gp, gl := m.Predict(x, got)
		wp, wl := predictRef(m, x, want)
		if !sameBits(gp, wp) || !sameBits(gl, wl) {
			t.Fatalf("%s step %d: Predict = (%v, %v), reference (%v, %v)", what, step, gp, gl, wp, wl)
		}
		for l := range got.h {
			for j := range got.h[l] {
				if !sameBits(got.h[l][j], want.h[l][j]) || !sameBits(got.c[l][j], want.c[l][j]) {
					t.Fatalf("%s step %d: layer %d state %d differs", what, step, l, j)
				}
			}
		}
	}
}

// TestPredictSequenceMatchesReference covers whole 16-row blocks and 4-unit
// groups (H=4, 16, 20, 32, 128) and leftovers for the Go loop (H=5).
func TestPredictSequenceMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, size := range []struct{ in, hid, layers int }{
			{13, 16, 1}, {13, 32, 2}, {13, 5, 2}, {13, 4, 2}, {13, 20, 2}, {12, 128, 2},
		} {
			m := NewModel(size.in, size.hid, size.layers, rng.New(uint64(size.hid)))
			checkPredictSequence(t, m, fmt.Sprintf("%+v", size))
		}
	})
}

// TestPackedWeightsFollowTraining checks that the packed weights are rebuilt
// wherever the weights change: after training steps, and in a model Load
// returns.
func TestPackedWeightsFollowTraining(t *testing.T) {
	src := rng.New(3)
	var data []Example
	for i := 0; i < 200; i++ {
		x := make([]float64, 13)
		for j := range x {
			x[j] = src.Normal(0, 1)
		}
		data = append(data, Example{X: x, Dropped: x[0] > 1, Latency: 0.5 + 0.1*x[1]})
	}
	forEachKernel(t, func(t *testing.T) {
		m := NewModel(13, 20, 2, rng.New(5))
		Train(m, data, TrainConfig{LR: 0.05, Batches: 5, Batch: 4, BPTT: 8, Seed: 1})
		checkPredictSequence(t, m, "trained")
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkPredictSequence(t, loaded, "loaded")
	})
}

func TestPredictPanicsOnWrongWidth(t *testing.T) {
	m := NewModel(4, 8, 1, rng.New(1))
	for _, n := range []int{3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Predict with %d inputs on a 4-input model did not panic", n)
				}
			}()
			m.Predict(make([]float64, n), m.NewState())
		}()
	}
}
