package nn

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"approxsim/internal/rng"
)

// goldenData returns n examples of width in: ordinary features with some
// exact zeros, negative zeros and values large enough to saturate the
// gates (so some gate gradients are exactly zero), and labels that depend
// on the inputs.
func goldenData(n, in int, seed uint64) []Example {
	src := rng.New(seed)
	data := make([]Example, n)
	for k := range data {
		x := make([]float64, in)
		for i := range x {
			switch src.Intn(10) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			case 2:
				x[i] = src.Normal(0, 40)
			default:
				x[i] = src.Normal(0, 1)
			}
		}
		data[k] = Example{X: x, Dropped: x[0] > 1.2, Latency: 0.5 + 0.1*math.Tanh(x[1])}
	}
	return data
}

// modelDigest is the sha256 of m's Save bytes.
func modelDigest(t *testing.T, m *Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestTrainGolden pins the exact bits Train produces. The 2-layer H=5 model
// covers layer 1's dx path and leftover lanes in every row (In 13, H 5) and
// stops early on its validation stream; the 1-layer H=20 model covers a
// 3-lane leftover on the input rows (In 7) and whole lanes on the recurrent
// rows. The digests were recorded before the backward pass had an AVX2
// kernel or a reusable scratch; the kernel and the Go loop must both keep
// them.
func TestTrainGolden(t *testing.T) {
	cases := []struct {
		name            string
		in, hid, layers int
		cfg             TrainConfig
		want            string
	}{
		{"2x5", 13, 5, 2, TrainConfig{LR: 0.05, Batches: 40, Batch: 4, BPTT: 8, Seed: 3, ValFraction: 0.2, Patience: 1}, "1c61241dafd4059f6c0b8cc23a3272d41cfcc5381debd51725d8050f9d6c2a15"},
		{"1x20", 7, 20, 1, TrainConfig{LR: 0.05, Batches: 30, Batch: 4, BPTT: 8, Seed: 4}, "fdb1d8b8e55389bd7bc5788d7c843f74fe800cb6ec2cf1bbac758b7a4eb6c056"},
	}
	forEachKernel(t, func(t *testing.T) {
		for _, tc := range cases {
			m := NewModel(tc.in, tc.hid, tc.layers, rng.New(11))
			st := Train(m, goldenData(400, tc.in, 21), tc.cfg)
			if got := modelDigest(t, m); got != tc.want {
				t.Errorf("%s: trained model digest %s, want %s (stats %+v)", tc.name, got, tc.want, st)
			}
		}
	})
}
