// Package approxsim reproduces "Fast Network Simulation Through
// Approximation or: How Blind Men Can Describe Elephants" (Kazer, Sedoc,
// Ng, Liu, Ungar — HotNets-XVII, 2018): a data-center network simulator
// that replaces most of the network's switching fabrics with trained
// machine-learning approximations, keeping one cluster (and the core
// switches) at full packet-level fidelity.
//
// The implementation is organized as one package per subsystem under
// internal/ (see DESIGN.md for the inventory); internal/scenario exposes the
// end-to-end workflow behind one serializable experiment description:
//
//	sp := scenario.Spec{Mode: "full", Capture: "cluster", ...}
//	full, _ := scenario.Run(sp)                           // capture training traces
//	models, _ := core.TrainModels(full.Run.Records, ...)  // fit macro + LSTM micro models
//	sp.Mode, sp.Capture = "hybrid", ""                    // 1 real cluster + N-1 approximated
//	hybrid, _ := scenario.Run(sp, scenario.WithModels(models))
//	cmp, _ := core.CompareRTT(truth.Run, hybrid.Run, 128) // Fig. 4 accuracy
//
// The same Spec, as JSON, drives the cmd/simd scenario server. cmd/figures
// regenerates every measured figure of the paper as data tables, and the
// benchmark/ module (declared by BENCHMARK.json) measures the system.
package approxsim
