// What-if study: the downstream workflow the paper is motivated by —
// evaluating a design change at a scale that full-fidelity simulation makes
// painful, by reusing one trained model across many cheap hybrid runs.
//
// The question here: how does switch buffer depth in the OBSERVED cluster
// affect tail flow-completion time at 8-cluster scale? The observed cluster
// stays full-fidelity (so the buffer change is faithfully simulated); the
// other seven clusters are model-approximated background. One training run
// amortizes across the whole parameter sweep.
//
// Each sweep point is a scenario.Spec run through scenario.Run — the same
// serializable description a simd server request carries, so any row of
// either sweep can be reproduced with a curl POST. The second study (failure
// detection) runs its variants through a shared scenario.Pool: the healthy
// baseline is simulated once, snapshotted, and every fault variant forks the
// snapshot instead of cold-starting.
//
// Each buffer sweep point also streams an interval metrics time series
// (tagged with its buffer depth) to whatif_metrics.jsonl — where the summary
// table shows one aggregate per depth, the rows show how loss and
// retransmission evolve within each run.
package main

import (
	"fmt"
	"log"
	"os"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
)

const seriesPath = "whatif_metrics.jsonl"

func main() {
	// One training pass on the small configuration.
	trainSp := scenario.Spec{
		Mode:      "full",
		Topology:  scenario.Topology{Kind: "clos", Clusters: 2},
		Workload:  scenario.Workload{Load: 0.5},
		Seed:      3,
		HorizonMS: 5,
		Capture:   "cluster",
	}
	fmt.Println("training models once (2-cluster full-fidelity capture)...")
	full, err := scenario.Run(trainSp)
	if err != nil {
		log.Fatal(err)
	}
	topoCfg := core.Config{Clusters: 2}.TopologyConfig()
	models, err := core.TrainModels(full.Run.Records, topoCfg, core.TrainOptions{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 300, Batch: 16, BPTT: 16, Seed: 3},
		Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	series, err := os.Create(seriesPath)
	if err != nil {
		log.Fatal(err)
	}
	defer series.Close()

	fmt.Println("\nsweep: fabric buffer depth in the observed cluster @ 8-cluster scale")
	fmt.Printf("%14s %12s %14s %12s %10s\n",
		"buffer", "mean FCT", "p99 FCT", "retransmits", "wall")
	for _, frames := range []int64{4, 8, 16, 32, 64} {
		sp := scenario.Spec{
			Mode:      "hybrid",
			Topology:  scenario.Topology{Kind: "clos", Clusters: 8, QueueFrames: frames},
			Workload:  scenario.Workload{Load: 0.5},
			Seed:      1003, // evaluation workload, not the training one
			HorizonMS: 4,
		}
		reg := metrics.NewRegistry()
		// Interval telemetry: one tagged row per virtual millisecond of this
		// sweep point, appended to the shared JSONL file.
		sampler := obs.NewSampler(reg, series, des.Millisecond)
		sampler.SetTag(fmt.Sprintf("buffer=%dpkt", frames))
		res, err := scenario.Run(sp,
			scenario.WithModels(models),
			scenario.WithRegistry(reg),
			scenario.WithPDESOptions(pdes.WithSampler(sampler)))
		if err != nil {
			log.Fatal(err)
		}
		snap := reg.Snapshot()
		fmt.Printf("%10d pkt %10.3fms %12.3fms %12d %9.2fs  (drops=%d)\n",
			frames, res.Metrics.MeanFCTSec*1e3, res.Metrics.P99FCTSec*1e3,
			res.Metrics.Retrans, res.Perf.WallSeconds,
			snap.Counter("netsim", "drops"))
	}
	fmt.Println("\neach sweep point reuses the same trained background models;")
	fmt.Println("only the full-fidelity cluster re-simulates the design change.")
	fmt.Printf("per-run interval telemetry: %s\n", seriesPath)

	faultStudy()
}

// faultStudy is the second what-if: how much failure-detection delay can the
// fabric tolerate? A spine switch dies for 3ms mid-workload; until each ToR's
// detection delay elapses it keeps hashing flows onto the dead spine, and
// every packet sent there blackholes. The sweep varies only the detection
// delay — the outage itself, the workload, and the seed are fixed — so the
// fault-drop and completed-flow columns isolate the cost of slow failure
// detection.
//
// Because the specs differ only in their fault schedule they share a baseline
// key, and the shared Pool simulates the fabric once: the first variant
// builds and snapshots the baseline system, the rest fork the snapshot and
// replay only their own outage (the "fork" column). The schedule is
// declarative, so the same study reproduces bit-identically under any sync
// algorithm or LP count — or cold, without the pool.
func faultStudy() {
	fmt.Println("\nsweep: failure-detection delay under a 3ms spine-switch outage @ 8 ToRs")
	fmt.Printf("%12s %12s %12s %12s %12s %6s\n",
		"detect", "fault drops", "completed", "mean FCT", "p99 FCT", "fork")
	pool := scenario.NewPool(1)
	for _, detect := range []string{"", "50us", "400us", "1ms"} {
		sp := scenario.Spec{
			Mode:     "pdes",
			Topology: scenario.Topology{Kind: "leafspine", Racks: 8},
			Workload: scenario.Workload{Load: 0.5},
			LPs:      2,
			Seed:     1003,
			// Long horizon: flows whose early segments blackhole recover by
			// retransmission timeout, so the damage only shows up if the run
			// drains well past the outage.
			HorizonMS: 40,
		}
		label := "(healthy)"
		if detect != "" {
			label = detect
			sp.Faults = fmt.Sprintf("switch:spine0@2ms+3ms,detect=%s,jitter=20us", detect)
		}
		res, err := scenario.Run(sp, scenario.WithPool(pool))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12s %12d %8d/%-3d %10.3fms %10.3fms %6v\n",
			label, res.Metrics.FaultDrops, res.Metrics.Completed, res.Metrics.Flows,
			res.Metrics.MeanFCTSec*1e3, res.Metrics.P99FCTSec*1e3, res.Perf.ForkReused)
	}
	st := pool.Stats()
	fmt.Println("\nthe outage and the workload are identical down the column; only the")
	fmt.Println("per-switch detection delay moves the blackhole window. FCT columns")
	fmt.Println("cover completed flows only — the damage is in the completed count.")
	fmt.Printf("snapshot pool: %d baseline build(s), %d fork reuse(s)\n", st.Builds, st.Reuses)
}
