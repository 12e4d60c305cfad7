// Command trainmodel runs the paper's training pipeline: simulate a small
// network in full packet-level fidelity, capture the boundary traces of one
// cluster, fit the ingress/egress LSTM micro models, and save the bundle
// that approxsim -mode hybrid (and the figure harness) consumes.
//
// Usage:
//
//	trainmodel -out models.bin -dur 10 -load 0.4
//	trainmodel -out models.bin -hidden 128 -layers 2 -batches 50000   # paper scale
//	trainmodel -trace-out capture.csv                                 # keep the raw trace
package main

import (
	"flag"
	"fmt"
	"os"

	"approxsim/internal/core"
	"approxsim/internal/nn"
	"approxsim/internal/scenario"
	"approxsim/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", "models.bin", "output model bundle path")
		traceOut = flag.String("trace-out", "", "optionally write the boundary capture as CSV")
		durMS    = flag.Int("dur", 8, "virtual milliseconds of training traffic")
		load     = flag.Float64("load", 0.4, "offered load")
		seed     = flag.Uint64("seed", 1, "root random seed")
		hidden   = flag.Int("hidden", 32, "LSTM hidden units (paper prototype: 128)")
		layers   = flag.Int("layers", 2, "stacked LSTM layers")
		batches  = flag.Int("batches", 500, "training batches (paper: >50000)")
		batch    = flag.Int("batch", 16, "windows per batch (paper: 64)")
		lr       = flag.Float64("lr", 0.02, "learning rate (paper: 0.0001 at paper scale)")
		alpha    = flag.Float64("alpha", 0.5, "latency-loss weight (paper: 0 < alpha <= 1)")
	)
	flag.Parse()
	if err := run(*out, *traceOut, *durMS, *load, *seed, *hidden, *layers, *batches, *batch, *lr, *alpha); err != nil {
		fmt.Fprintln(os.Stderr, "trainmodel:", err)
		os.Exit(1)
	}
}

func run(out, traceOut string, durMS int, load float64, seed uint64,
	hidden, layers, batches, batch int, lr, alpha float64) error {

	sp := scenario.Spec{
		Mode:      "full",
		Topology:  scenario.Topology{Kind: "clos", Clusters: 2},
		Workload:  scenario.Workload{Load: load},
		Seed:      seed,
		HorizonMS: float64(durMS),
		Capture:   "cluster",
	}
	fmt.Fprintf(os.Stderr, "capturing %dms of full-fidelity boundary traffic (2 clusters)...\n", durMS)
	res, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	full := res.Run
	eg, ing := trace.Split(full.Records)
	fmt.Fprintf(os.Stderr, "captured %d egress and %d ingress traversals (%d events, %.2fs wall)\n",
		len(eg), len(ing), res.Perf.Events, res.Perf.WallSeconds)

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteCSV(f, full.Records); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote trace to %s\n", traceOut)
	}

	fmt.Fprintf(os.Stderr, "training %dx%d LSTMs (%d batches of %d windows)...\n",
		layers, hidden, batches, batch)
	models, err := core.TrainModels(full.Records, sp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: hidden, Layers: layers,
		NN: nn.TrainConfig{
			LR: lr, Alpha: alpha, Batches: batches, Batch: batch, BPTT: 16, Seed: seed,
		},
		Seed: seed,
	})
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := models.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote model bundle to %s (%d + %d parameters)\n",
		out, models.Egress.NumParams(), models.Ingress.NumParams())
	return nil
}
