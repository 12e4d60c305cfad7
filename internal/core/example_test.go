package core_test

import (
	"fmt"

	"approxsim/internal/core"
	"approxsim/internal/nn"
	"approxsim/internal/scenario"
)

// Example demonstrates the paper's end-to-end workflow: run a small network
// in full fidelity, train the approximation, and run a hybrid simulation at
// the same scale. Counts vary with the model, so the example prints only
// invariants.
func Example() {
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      12345,
		HorizonMS: 2,
	}

	// 1. Full-fidelity run, capturing cluster 0's fabric boundary.
	capture := sp
	capture.Capture = "cluster"
	full, err := scenario.Run(capture)
	if err != nil {
		panic(err)
	}

	// 2. Train small ingress/egress LSTMs from the capture.
	models, err := core.TrainModels(full.Run.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 20, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	// 3. Hybrid run: cluster 1's fabric replaced by the models.
	sp.Mode = "hybrid"
	hybrid, err := scenario.Run(sp, scenario.WithModels(models))
	if err != nil {
		panic(err)
	}

	fmt.Println("captured records:", len(full.Run.Records) > 0)
	fmt.Println("hybrid completed flows:", hybrid.Metrics.Completed > 0)
	fmt.Println("hybrid elided events:", hybrid.Perf.Events < full.Perf.Events)
	// Output:
	// captured records: true
	// hybrid completed flows: true
	// hybrid elided events: true
}

// ExampleCompareRTT shows the Fig. 4 accuracy comparison reduced to its
// KS-distance summary.
func ExampleCompareRTT() {
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      777,
		HorizonMS: 2,
	}
	capture := sp
	capture.Capture = "cluster"
	full, err := scenario.Run(capture)
	if err != nil {
		panic(err)
	}
	models, err := core.TrainModels(full.Run.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 20, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	truth, err := scenario.Run(sp)
	if err != nil {
		panic(err)
	}
	sp.Mode = "hybrid"
	hybrid, err := scenario.Run(sp, scenario.WithModels(models))
	if err != nil {
		panic(err)
	}
	cmp, err := core.CompareRTT(truth.Run, hybrid.Run, 32)
	if err != nil {
		panic(err)
	}
	fmt.Println("KS in [0,1]:", cmp.KS >= 0 && cmp.KS <= 1)
	fmt.Println("CDF series present:", len(cmp.Full) > 0 && len(cmp.Approx) > 0)
	// Output:
	// KS in [0,1]: true
	// CDF series present: true
}
