package nn_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"approxsim/internal/core"
	"approxsim/internal/nn"
	"approxsim/internal/scenario"
)

// TestTrainModelsGolden pins the exact bits core.TrainModels produces from a
// small fixed capture, with and without the macro feature: the sha256 of
// the saved bundle, both directions' weights and floors. The digests were
// recorded while the two directions still trained one after the other and
// the backward pass ran the scalar Go loop; they must hold with the AVX2
// kernels on and with them forced off.
func TestTrainModelsGolden(t *testing.T) {
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      61,
		HorizonMS: 4,
		Mode:      "full",
		Capture:   "cluster",
	}
	full, err := scenario.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		noMacro bool
		want    string
	}{
		{false, "7000cc306ae612c287b40652115178c2518287cd1da3e53eaa635d552426c766"},
		{true, "1209af70ea779a919b69089dc8c8a4fbaf6d98751c569aafa3810eeefa60a1c5"},
	} {
		for _, avx2 := range []bool{true, false} {
			was := nn.SetAVX2(avx2)
			models, err := core.TrainModels(full.Run.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
				Hidden: 6, Layers: 2, NoMacro: tc.noMacro,
				NN:   nn.TrainConfig{LR: 0.02, Batches: 20, Batch: 8, BPTT: 8, Seed: 5},
				Seed: 6,
			})
			nn.SetAVX2(was)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := models.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Errorf("noMacro=%v avx2=%v: trained bundle digest %s, want %s", tc.noMacro, avx2, got, tc.want)
			}
		}
	}
}
