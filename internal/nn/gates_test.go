package nn

import (
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

// checkGates compares gates with gatesRef bit for bit on one random problem
// with the given input width and hidden size.
func checkGates(t *testing.T, seed uint64, in, hid int, mix uint8) {
	t.Helper()
	src := rng.New(seed)
	rows := 4 * hid
	b := randVec(src, rows, mix)
	wx := randVec(src, rows*in, mix)
	x := randVec(src, in, mix)
	wh := randVec(src, rows*hid, mix)
	h := randVec(src, hid, mix)
	got, want := make([]float64, rows), make([]float64, rows)
	gates(got, b, wx, x, wh, h)
	gatesRef(want, b, wx, x, wh, h)
	for r := range got {
		if !sameBits(got[r], want[r]) {
			t.Fatalf("In=%d H=%d mix=%d seed=%d: z[%d] = %v (%#x), reference %v (%#x)",
				in, hid, mix, seed, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
		}
	}
}

func TestGatesMatchReference(t *testing.T) {
	seed := uint64(1)
	for _, in := range []int{0, 1, 2, 7, 13, 16, 128} {
		for _, hid := range []int{1, 2, 3, 4, 16, 32, 128} {
			for mix := uint8(0); mix < 4; mix++ {
				checkGates(t, seed, in, hid, mix)
				seed++
			}
		}
	}
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
		checkGates(t, seed, int(in%129), int(hid%129)+1, mix)
	})
}

// predictRef is Predict with every gate computed by the Go reference loop.
func predictRef(m *Model, x []float64, st *State) (dropProb, latency float64) {
	cur := x
	for l, layer := range m.lstm {
		h, c, z := st.h[l], st.c[l], st.z
		gatesRef(z, layer.B, layer.Wx, cur, layer.Wh, h)
		H := layer.Hidden
		for j := 0; j < H; j++ {
			c[j] = sigmoid(z[H+j])*c[j] + sigmoid(z[j])*tanh(z[2*H+j])
			h[j] = sigmoid(z[3*H+j]) * tanh(c[j])
		}
		cur = h
	}
	return sigmoid(m.DropHead.forward1(cur)), m.LatHead.forward1(cur)
}

// TestPredictSequenceMatchesReference runs 1,000 predictions through the
// kernel and the reference side by side, so any difference in one step's
// bits would also show in the recurrent state it leaves behind.
func TestPredictSequenceMatchesReference(t *testing.T) {
	for _, size := range []struct{ in, hid, layers int }{
		{13, 16, 1}, {13, 32, 2}, {13, 5, 2}, {12, 128, 2},
	} {
		m := NewModel(size.in, size.hid, size.layers, rng.New(uint64(size.hid)))
		got, want := m.NewState(), m.NewState()
		src := rng.New(7)
		x := make([]float64, size.in)
		for step := 0; step < 1000; step++ {
			for i := range x {
				x[i] = src.Normal(0, 1+float64(i))
			}
			gp, gl := m.Predict(x, got)
			wp, wl := predictRef(m, x, want)
			if !sameBits(gp, wp) || !sameBits(gl, wl) {
				t.Fatalf("%+v step %d: Predict = (%v, %v), reference (%v, %v)", size, step, gp, gl, wp, wl)
			}
			for l := range got.h {
				for j := range got.h[l] {
					if !sameBits(got.h[l][j], want.h[l][j]) || !sameBits(got.c[l][j], want.c[l][j]) {
						t.Fatalf("%+v step %d: layer %d state %d differs", size, step, l, j)
					}
				}
			}
		}
	}
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
