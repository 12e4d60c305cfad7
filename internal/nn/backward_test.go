package nn

import (
	"math"
	"testing"

	"approxsim/internal/rng"
)

// backInputs returns n values for the backward rows, each drawn from ±0,
// ±Inf, NaN, ±the smallest subnormal, a large subnormal, a, b and ordinary
// values.
func backInputs(src *rng.Source, n int, a, b float64) []float64 {
	tiny := math.Float64frombits(1)
	big := math.Float64frombits(1<<52 - 1)
	pool := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), tiny, -tiny, big, -big, a, b}
	v := make([]float64, n)
	for i := range v {
		if k := src.Intn(2 * len(pool)); k < len(pool) {
			v[i] = pool[k]
		} else {
			v[i] = src.Normal(0, 3)
		}
	}
	return v
}

// checkBackRows runs backRows and backRowsGo on copies of one problem of
// the given shape, with and without dx, and compares dw and dx bit for bit.
func checkBackRows(t *testing.T, seed uint64, rows, n int, a, b float64) {
	t.Helper()
	src := rng.New(seed)
	dz := backInputs(src, rows, a, b)
	w := backInputs(src, rows*n, a, b)
	v := backInputs(src, n, a, b)
	dw0 := backInputs(src, rows*n, a, b)
	dx0 := backInputs(src, n, a, b)
	for _, withDX := range []bool{true, false} {
		wantDW := append([]float64(nil), dw0...)
		var wantDX, gotDX []float64
		if withDX {
			wantDX = append([]float64(nil), dx0...)
			gotDX = append([]float64(nil), dx0...)
		}
		backRowsGo(dz, w, wantDW, v, wantDX)
		gotDW := append([]float64(nil), dw0...)
		backRows(dz, w, gotDW, v, gotDX)
		for i := range gotDW {
			if !sameBits(gotDW[i], wantDW[i]) {
				t.Fatalf("avx2=%v rows=%d n=%d seed=%d: dw[%d] = %v (%#x), reference %v (%#x)", useAVX2, rows, n, seed,
					i, gotDW[i], math.Float64bits(gotDW[i]), wantDW[i], math.Float64bits(wantDW[i]))
			}
		}
		for i := range gotDX {
			if !sameBits(gotDX[i], wantDX[i]) {
				t.Fatalf("avx2=%v rows=%d n=%d seed=%d: dx[%d] = %v (%#x), reference %v (%#x)", useAVX2, rows, n, seed,
					i, gotDX[i], math.Float64bits(gotDX[i]), wantDX[i], math.Float64bits(wantDX[i]))
			}
		}
	}
}

// TestBackRowsMatchReference covers every column count up to 130: whole
// 16-column blocks (up to eight at 128) with and without leftover columns.
func TestBackRowsMatchReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		seed := uint64(1)
		for _, rows := range []int{0, 1, 3, 4, 20, 64} {
			for n := 0; n <= 130; n++ {
				checkBackRows(t, seed, rows, n, 1, -1)
				seed++
			}
		}
	})
}

// TestBackRowsKeepsNegativeZero checks the zero skip: a zero gradient row
// leaves a -0 in dw and dx as it is, where adding its +0 products would
// make it +0.
func TestBackRowsKeepsNegativeZero(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for _, g := range []float64{0, negZero} {
			dw := []float64{negZero, negZero, negZero, negZero, negZero}
			dx := []float64{negZero, negZero, negZero, negZero, negZero}
			backRows([]float64{g}, []float64{1, 2, 3, 4, 5}, dw, []float64{1, 2, 3, 4, 5}, dx)
			for i := range dw {
				if !math.Signbit(dw[i]) || !math.Signbit(dx[i]) {
					t.Fatalf("g=%v: dw[%d]=%v dx[%d]=%v, want -0", g, i, dw[i], i, dx[i])
				}
			}
		}
	})
}

// FuzzBackward checks the backward row kernel against the Go loop bit for
// bit over 1 to 130 columns and up to 64 rows, with ±0, ±Inf, NaN and
// subnormals in the gradients, the inputs and the weights.
func FuzzBackward(f *testing.F) {
	f.Add(uint64(1), uint8(13), uint8(64), 1.0, -1.0)
	f.Add(uint64(2), uint8(16), uint8(64), math.Inf(1), math.NaN())
	f.Add(uint64(3), uint8(5), uint8(20), math.Copysign(0, -1), math.Float64frombits(1))
	f.Add(uint64(4), uint8(1), uint8(1), 1e300, -1e-300)
	f.Add(uint64(5), uint8(40), uint8(7), 0.5, 2.0)
	f.Add(uint64(6), uint8(127), uint8(64), math.NaN(), -1.5)
	f.Fuzz(func(t *testing.T, seed uint64, n, rows uint8, a, b float64) {
		fuzzKernels(func() { checkBackRows(t, seed, int(rows%65), int(n%130)+1, a, b) })
	})
}

// checkGateGrads runs gateGrads and gateGradsRows on copies of one step's
// state for H units and compares dz, dc and dB bit for bit.
func checkGateGrads(t *testing.T, seed uint64, H int, a, b float64) {
	t.Helper()
	src := rng.New(seed)
	gates := backInputs(src, 4*H, a, b)
	tc := backInputs(src, H, a, b)
	cPrev := backInputs(src, H, a, b)
	dh := backInputs(src, H, a, b)
	dc0 := backInputs(src, H, a, b)
	dB0 := backInputs(src, 4*H, a, b)
	wantDC, wantDZ, wantDB := append([]float64(nil), dc0...), make([]float64, 4*H), append([]float64(nil), dB0...)
	gateGradsRows(gates, tc, cPrev, dh, wantDC, wantDZ, wantDB, 0)
	gotDC, gotDZ, gotDB := append([]float64(nil), dc0...), make([]float64, 4*H), append([]float64(nil), dB0...)
	gateGrads(gates, tc, cPrev, dh, gotDC, gotDZ, gotDB)
	for j := range gotDC {
		if !sameBits(gotDC[j], wantDC[j]) {
			t.Fatalf("avx2=%v H=%d seed=%d: dc[%d] = %v (%#x), reference %v (%#x)", useAVX2, H, seed,
				j, gotDC[j], math.Float64bits(gotDC[j]), wantDC[j], math.Float64bits(wantDC[j]))
		}
	}
	for r := range gotDZ {
		if !sameBits(gotDZ[r], wantDZ[r]) {
			t.Fatalf("avx2=%v H=%d seed=%d: dz[%d] = %v (%#x), reference %v (%#x)", useAVX2, H, seed,
				r, gotDZ[r], math.Float64bits(gotDZ[r]), wantDZ[r], math.Float64bits(wantDZ[r]))
		}
		if !sameBits(gotDB[r], wantDB[r]) {
			t.Fatalf("avx2=%v H=%d seed=%d: dB[%d] = %v (%#x), reference %v (%#x)", useAVX2, H, seed,
				r, gotDB[r], math.Float64bits(gotDB[r]), wantDB[r], math.Float64bits(wantDB[r]))
		}
	}
}

// FuzzGateGrads checks the gate-gradient kernel against the Go loop bit for
// bit over 1 to 64 units (whole 4-unit groups and leftovers), with ±0, ±Inf,
// NaN and subnormals in the gates, tanh(c), cPrev, both gradients and the
// bias gradient it adds to.
func FuzzGateGrads(f *testing.F) {
	f.Add(uint64(1), uint8(16), 1.0, -1.0)
	f.Add(uint64(2), uint8(5), math.Inf(1), math.NaN())
	f.Add(uint64(3), uint8(4), math.Copysign(0, -1), math.Float64frombits(1))
	f.Add(uint64(4), uint8(1), 1e300, -1e-300)
	f.Add(uint64(5), uint8(63), 0.5, 2.0)
	f.Fuzz(func(t *testing.T, seed uint64, hid uint8, a, b float64) {
		fuzzKernels(func() { checkGateGrads(t, seed, int(hid%64)+1, a, b) })
	})
}
