// Command figures regenerates the data series behind every measurement
// figure in the paper's evaluation (Figs. 1, 4, 5; Figs. 2–3 are
// architecture diagrams) plus the ablations DESIGN.md calls out.
//
// Usage:
//
//	figures -fig 1          # OMNeT++-style leaf-spine scaling, 1/2/4/8 LPs
//	figures -fig 4          # RTT CDFs: full vs approximate (+ KS distance)
//	figures -fig 5          # speedup vs cluster count (2/4/8/16)
//	figures -fig events     # ablation: event counts full vs hybrid
//	figures -fig alpha      # ablation: joint-loss alpha sweep
//	figures -fig macro      # ablation: macro-state feature on/off
//	figures -fig blackbox   # extension: section-7 single-black-box limit
//	figures -fig flow       # ablation: flow-level baseline speed/accuracy
//
// Output is tab-separated series, one row per data point, mirroring the
// figure's axes. Pass -dur/-load/-seed to vary the workload, and -quick to
// shrink the sweep for smoke runs.
//
// Every run goes through the scenario API (internal/scenario): each sweep
// point is a scenario.Spec, so any row here can be reproduced exactly by
// POSTing the same spec to the simd server or passing the same flags to
// approxsim. The -sync / -faults grammars come from
// scenario.BindSweep — defined once, shared with every other front-end.
package main

import (
	"flag"
	"fmt"
	"os"

	"approxsim/internal/core"
	"approxsim/internal/metrics"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
	"approxsim/internal/textplot"
)

func main() {
	var (
		fig     = flag.String("fig", "", "which figure to regenerate: 1, 4, 5, events, alpha, macro, flow")
		durMS   = flag.Int("dur", 0, "virtual milliseconds to simulate (0 = figure default)")
		load    = flag.Float64("load", 0.4, "offered load as a fraction of host bandwidth")
		seed    = flag.Uint64("seed", 1, "root random seed")
		quick   = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		paper   = flag.Bool("paper-scale", false, "train the paper's 2x128 LSTM (slow)")
		batches = flag.Int("batches", 400, "training batches for figs 4/5")
		trace   = flag.String("trace", "", "fig 1: Chrome trace of the last sweep point to this file (open in Perfetto)")
	)
	sweep := scenario.BindSweep(flag.CommandLine) // -sync, -faults, -collective (fig 1)
	flag.Parse()
	trainBatches = *batches

	var err error
	switch *fig {
	case "1":
		err = fig1(*durMS, *load, *seed, *quick, sweep, *trace)
	case "4":
		err = fig4(*durMS, *load, *seed, *paper)
	case "5":
		err = fig5(*durMS, *load, *seed, *quick, *paper)
	case "events":
		err = figEvents(*durMS, *load, *seed)
	case "alpha":
		err = figAlpha(*durMS, *load, *seed)
	case "macro":
		err = figMacro(*durMS, *load, *seed)
	case "blackbox":
		err = figBlackBox(*durMS, *load, *seed)
	case "flow":
		err = figFlow(*durMS, *load, *seed)
	default:
		fmt.Fprintln(os.Stderr, "usage: figures -fig {1|4|5|events|alpha|macro|blackbox|flow} [-dur ms] [-load f] [-seed n] [-quick]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// fig1 reproduces Figure 1: simulated seconds per wall-clock second on
// leaf-spine fabrics of growing size, single-threaded vs PDES with 2, 4, and
// 8 LPs (the paper's "1, 2, 4 machines" axis). Synchronization counters come
// from the shared metrics registry: every kernel, LP, switch, and stack in
// the experiment reports through it, so the columns here are the same
// aggregates a -metrics snapshot of the approxsim command would show. The
// channels column counts the directed LP channels the healthy network keeps
// live (pdes.PartitionStats.Channels); under -faults every channel is live.
func fig1(durMS int, load float64, seed uint64, quick bool, sweep *scenario.Flags, tracePath string) error {
	if durMS == 0 {
		durMS = 2
	}
	sizes := []int{4, 8, 16, 32, 64}
	lpsSet := []int{1, 2, 4, 8}
	if quick {
		sizes = []int{4, 8}
		lpsSet = []int{1, 2}
	}
	type combo struct{ n, lps int }
	var combos []combo
	for _, n := range sizes {
		for _, lps := range lpsSet {
			if lps <= n {
				combos = append(combos, combo{n, lps})
			}
		}
	}
	fmt.Printf("# Figure 1: leaf-spine scaling, sim-seconds per wall-second (sync=%s)\n", sweep.Sync)
	header := "tors\tlps\tsim_per_wall\tevents\tsync_msgs\tcross_pkts\tparked\tdropped\tchannels\trollbacks\tckpts\tflows"
	if sweep.Faults != "" {
		fmt.Printf("# faults: %s\n", sweep.Faults)
		header += "\tfault_drops\troute_drops\tp99_fct"
	}
	if sweep.Collective != "" {
		fmt.Printf("# collective: %s\n", sweep.Collective)
		header += "\tcoll_iters\tcoll_mean_iter"
	}
	fmt.Println(header)
	curves := map[int]*textplot.Series{}
	var order []int
	for i, c0 := range combos {
		n, lps := c0.n, c0.lps
		// Fault names (tor0, spine1, ...) resolve against each sweep point's
		// own topology; scenario.Run re-parses the schedule per size.
		sp := sweep.PDESSpec(n, lps, load, seed, float64(durMS))
		reg := metrics.NewRegistry()
		opts := []scenario.RunOption{scenario.WithRegistry(reg)}
		// Tracing slows the run (and, under timewarp, changes the rollback
		// pattern), so only the last sweep point is traced: the timing
		// columns above it stay untouched.
		var tracer *obs.Tracer
		if tracePath != "" && i == len(combos)-1 {
			tracer = obs.New(obs.Options{Trace: true})
			opts = append(opts, scenario.WithPDESOptions(pdes.WithObs(tracer)))
		}
		res, err := scenario.Run(sp, opts...)
		if err != nil {
			return fmt.Errorf("%d-ToR/%d-LP point: %w", n, lps, err)
		}
		if tracer != nil {
			f, err := os.Create(tracePath)
			if err != nil {
				return err
			}
			if err := tracer.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "figures: trace of %d-ToR/%d-LP run written to %s\n", n, lps, tracePath)
		}
		snap := reg.Snapshot()
		syncMsgs := snap.Counter("pdes", "null_messages") + snap.Counter("pdes", "barriers")
		fmt.Printf("%d\t%d\t%.6g\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
			n, lps, res.Perf.SimPerWall, snap.Counter("des", "events_executed"),
			syncMsgs, snap.Counter("pdes", "cross_lp_packets"),
			res.Stats[pdes.ParkedArrivals], res.Stats[pdes.PostHorizonDrops], res.Partition.Channels,
			snap.Counter("pdes", "rollbacks"), res.Stats[pdes.Checkpoints], res.Metrics.Completed)
		if sweep.Faults != "" {
			fmt.Printf("\t%d\t%d\t%.6g", res.Metrics.FaultDrops, res.Metrics.RouteDrops, res.Metrics.P99FCTSec)
		}
		if sweep.Collective != "" {
			fmt.Printf("\t%d\t%.6g", res.Metrics.CollectiveIters, res.Metrics.CollectiveMeanIterSec)
		}
		fmt.Println()
		c, ok := curves[lps]
		if !ok {
			c = &textplot.Series{Name: fmt.Sprintf("%d LP(s)", lps)}
			curves[lps] = c
			order = append(order, lps)
		}
		c.X = append(c.X, float64(n))
		c.Y = append(c.Y, res.Perf.SimPerWall)
	}
	var series []textplot.Series
	for _, lps := range order {
		series = append(series, *curves[lps])
	}
	fmt.Println()
	fmt.Print(textplot.Plot("sim-seconds per wall-second vs ToR count (log y)",
		series, 60, 14, false, true))
	return nil
}

// trainBatches is settable from the command line (-batches).
var trainBatches = 400

// closSpec is the shared clos-mode spec template the training and ablation
// figures start from.
func closSpec(clusters, durMS int, load float64, seed uint64) scenario.Spec {
	return scenario.Spec{
		Mode:      "full",
		Topology:  scenario.Topology{Kind: "clos", Clusters: clusters},
		Workload:  scenario.Workload{Load: load},
		Seed:      seed,
		HorizonMS: float64(durMS),
	}
}

// trainOnce runs the training pipeline shared by fig4/fig5: a 2-cluster
// full-fidelity capture and a model fit. It returns the capture spec (reuse
// it, reseeded, for evaluation runs) alongside the models.
func trainOnce(durMS int, load float64, seed uint64, hidden, layers int, paperScale bool) (scenario.Spec, *core.Models, error) {
	sp := closSpec(2, durMS, load, seed)
	sp.Capture = "cluster"
	res, err := scenario.Run(sp)
	if err != nil {
		return sp, nil, err
	}
	opts := core.TrainOptions{
		Hidden: hidden, Layers: layers,
		NN:         nn.TrainConfig{LR: 0.02, Batches: trainBatches, Batch: 16, BPTT: 16, Seed: seed},
		Seed:       seed,
		PaperScale: paperScale,
	}
	if paperScale {
		opts.NN = nn.TrainConfig{Seed: seed} // paper defaults: lr 1e-4, 50k batches
	}
	topoCfg := core.Config{Clusters: sp.Topology.Clusters}.TopologyConfig()
	models, err := core.TrainModels(res.Run.Records, topoCfg, opts)
	sp.Capture = ""
	return sp, models, err
}

// fig4 reproduces Figure 4: the CDF of RTTs observed by hosts in the
// full-fidelity cluster, under full simulation and under approximation.
func fig4(durMS int, load float64, seed uint64, paperScale bool) error {
	if durMS == 0 {
		durMS = 8
	}
	// Accuracy experiment: favor model capacity (2x32 LSTM by default).
	sp, models, err := trainOnce(durMS, load, seed, 32, 2, paperScale)
	if err != nil {
		return err
	}
	// Evaluate on a fresh seed so the model is not replaying its training
	// workload.
	sp.Seed = seed + 1000
	full, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	hySp := sp
	hySp.Mode = "hybrid"
	hybrid, err := scenario.Run(hySp, scenario.WithModels(models))
	if err != nil {
		return err
	}
	cmp, err := core.CompareRTT(full.Run, hybrid.Run, 128)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 4: CDF of packet RTTs, ground truth vs approximation")
	fmt.Printf("# KS distance: %.4f (full n=%d, approx n=%d)\n",
		cmp.KS, full.Run.RTTs.Len(), hybrid.Run.RTTs.Len())
	fmt.Println("series\trtt_seconds\tcdf")
	var fx, fy, ax, ay []float64
	for _, p := range cmp.Full {
		fmt.Printf("groundtruth\t%.9g\t%.4f\n", p.Value, p.P)
		fx = append(fx, p.Value)
		fy = append(fy, p.P)
	}
	for _, p := range cmp.Approx {
		fmt.Printf("approx\t%.9g\t%.4f\n", p.Value, p.P)
		ax = append(ax, p.Value)
		ay = append(ay, p.P)
	}
	fmt.Println()
	fmt.Print(textplot.CDFOverlay("CDF of packet RTTs (log x, seconds)",
		"groundtruth", fx, fy, "approx", ax, ay, 64, 16))
	return nil
}

// fig5 reproduces Figure 5: wall-clock speedup of the approximate simulation
// over the full simulation as the cluster count grows.
func fig5(durMS int, load float64, seed uint64, quick bool, paperScale bool) error {
	if durMS == 0 {
		durMS = 5
	}
	// Speed experiment: favor prediction cost (1x16 LSTM). The paper ran
	// inference on a GPU where prediction is "a few matrix multiplications";
	// on one CPU core the micro model's size IS the speed/accuracy knob
	// (paper section 7), so the speed figure uses the smallest model that
	// still tracks the fabric.
	sp, models, err := trainOnce(durMS, load, seed, 16, 1, paperScale)
	if err != nil {
		return err
	}
	counts := []int{2, 4, 8, 16}
	if quick {
		counts = []int{2, 4}
	}
	fmt.Println("# Figure 5: speedup of approximate vs full simulation")
	fmt.Println("clusters\tspeedup\tevent_ratio\tfull_wall_s\thybrid_wall_s\tfull_events\thybrid_events")
	var xs, ys, es []float64
	for _, c := range counts {
		// The same spec run twice, full then hybrid: the workload is identical
		// by construction, so the ratios isolate the approximation.
		fullSp := sp
		fullSp.Topology.Clusters = c
		fullSp.Seed = seed + uint64(c)
		full, err := scenario.Run(fullSp)
		if err != nil {
			return err
		}
		hySp := fullSp
		hySp.Mode = "hybrid"
		hybrid, err := scenario.Run(hySp, scenario.WithModels(models))
		if err != nil {
			return err
		}
		speedup := full.Perf.WallSeconds / hybrid.Perf.WallSeconds
		eventRatio := float64(full.Perf.Events) / float64(hybrid.Perf.Events)
		fmt.Printf("%d\t%.3f\t%.3f\t%.4f\t%.4f\t%d\t%d\n",
			c, speedup, eventRatio, full.Perf.WallSeconds, hybrid.Perf.WallSeconds,
			full.Perf.Events, hybrid.Perf.Events)
		xs = append(xs, float64(c))
		ys = append(ys, speedup)
		es = append(es, eventRatio)
	}
	fmt.Println()
	fmt.Print(textplot.Plot("speedup vs cluster count", []textplot.Series{
		{Name: "wall-clock speedup", X: xs, Y: ys, Marker: '*'},
		{Name: "event-count ratio", X: xs, Y: es, Marker: 'o'},
	}, 56, 12, false, false))
	return nil
}

// figEvents is the event-elision ablation: where do the events go when a
// fabric is approximated?
func figEvents(durMS int, load float64, seed uint64) error {
	if durMS == 0 {
		durMS = 5
	}
	_, models, err := trainOnce(durMS, load, seed, 16, 1, false)
	if err != nil {
		return err
	}
	fmt.Println("# Ablation: scheduler events per simulation variant (4 clusters)")
	fmt.Println("variant\tevents\tflows_completed")
	sp := closSpec(4, durMS, load, seed)
	full, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	fmt.Printf("full\t%d\t%d\n", full.Perf.Events, full.Metrics.Completed)
	sp.Mode = "hybrid"
	hybrid, err := scenario.Run(sp, scenario.WithModels(models))
	if err != nil {
		return err
	}
	fmt.Printf("hybrid\t%d\t%d\n", hybrid.Perf.Events, hybrid.Metrics.Completed)
	for i, fs := range hybrid.Run.FabricStats {
		fmt.Printf("# fabric %d: egress=%d ingress=%d drops=%d/%d conflicts=%d\n",
			i, fs.EgressPackets, fs.IngressPackets, fs.EgressDrops, fs.IngressDrops, fs.Conflicts)
	}
	return nil
}

// figAlpha sweeps the joint-loss weight (paper §4.2: L = L_drop + a*L_lat).
func figAlpha(durMS int, load float64, seed uint64) error {
	if durMS == 0 {
		durMS = 6
	}
	captureSp := closSpec(2, durMS, load, seed)
	captureSp.Capture = "cluster"
	capture, err := scenario.Run(captureSp)
	if err != nil {
		return err
	}
	evalSp := closSpec(2, durMS, load, seed+1000)
	truth, err := scenario.Run(evalSp)
	if err != nil {
		return err
	}
	topoCfg := core.Config{Clusters: 2}.TopologyConfig()
	fmt.Println("# Ablation: alpha (latency-loss weight) vs RTT accuracy")
	fmt.Println("alpha\tks_distance")
	for _, alpha := range []float64{0.1, 0.25, 0.5, 1.0} {
		models, err := core.TrainModels(capture.Run.Records, topoCfg, core.TrainOptions{
			Hidden: 24, Layers: 1,
			NN:   nn.TrainConfig{LR: 0.02, Alpha: alpha, Batches: 300, Batch: 16, BPTT: 16, Seed: seed},
			Seed: seed,
		})
		if err != nil {
			return err
		}
		hySp := evalSp
		hySp.Mode = "hybrid"
		hybrid, err := scenario.Run(hySp, scenario.WithModels(models))
		if err != nil {
			return err
		}
		cmp, err := core.CompareRTT(truth.Run, hybrid.Run, 64)
		if err != nil {
			return err
		}
		fmt.Printf("%.2f\t%.4f\n", alpha, cmp.KS)
	}
	return nil
}

// figMacro is the macro-model ablation: identical micro models trained and
// applied with and without the macro congestion-state feature.
func figMacro(durMS int, load float64, seed uint64) error {
	if durMS == 0 {
		durMS = 6
	}
	captureSp := closSpec(2, durMS, load, seed)
	captureSp.Capture = "cluster"
	capture, err := scenario.Run(captureSp)
	if err != nil {
		return err
	}
	evalSp := closSpec(2, durMS, load, seed+1000)
	truth, err := scenario.Run(evalSp)
	if err != nil {
		return err
	}
	topoCfg := core.Config{Clusters: 2}.TopologyConfig()
	fmt.Println("# Ablation: macro-state feature on/off vs RTT accuracy")
	fmt.Println("macro	ks_distance")
	for _, noMacro := range []bool{false, true} {
		models, err := core.TrainModels(capture.Run.Records, topoCfg, core.TrainOptions{
			Hidden: 24, Layers: 1, NoMacro: noMacro,
			NN:   nn.TrainConfig{LR: 0.02, Batches: 300, Batch: 16, BPTT: 16, Seed: seed},
			Seed: seed,
		})
		if err != nil {
			return err
		}
		hySp := evalSp
		hySp.Mode = "hybrid"
		hybrid, err := scenario.Run(hySp, scenario.WithModels(models))
		if err != nil {
			return err
		}
		cmp, err := core.CompareRTT(truth.Run, hybrid.Run, 64)
		if err != nil {
			return err
		}
		label := "on"
		if noMacro {
			label = "off"
		}
		fmt.Printf("%s\t%.4f\n", label, cmp.KS)
	}
	return nil
}

// figBlackBox quantifies the section-7 limiting case: per-cluster fabrics
// vs one black box replacing cores and every remote cluster. Rows compare
// events, wall time, and RTT accuracy against the same ground truth.
func figBlackBox(durMS int, load float64, seed uint64) error {
	if durMS == 0 {
		durMS = 5
	}
	sp := closSpec(4, durMS, load, seed)
	sp.Capture = "cluster"
	fullC, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	sp.Capture = "wholenet"
	fullW, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	opts := core.TrainOptions{
		Hidden: 24, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: trainBatches, Batch: 16, BPTT: 16, Seed: seed},
		Seed: seed,
	}
	topoCfg := core.Config{Clusters: 4}.TopologyConfig()
	mh, err := core.TrainModels(fullC.Run.Records, topoCfg, opts)
	if err != nil {
		return err
	}
	mb, err := core.TrainModels(fullW.Run.Records, topoCfg, opts)
	if err != nil {
		return err
	}
	evalSp := closSpec(4, durMS, load, seed+1000)
	truth, err := scenario.Run(evalSp)
	if err != nil {
		return err
	}
	hySp := evalSp
	hySp.Mode = "hybrid"
	hybrid, err := scenario.Run(hySp, scenario.WithModels(mh))
	if err != nil {
		return err
	}
	bbSp := evalSp
	bbSp.Mode = "blackbox"
	blackbox, err := scenario.Run(bbSp, scenario.WithModels(mb))
	if err != nil {
		return err
	}
	ch, err := core.CompareRTT(truth.Run, hybrid.Run, 64)
	if err != nil {
		return err
	}
	cb, err := core.CompareRTT(truth.Run, blackbox.Run, 64)
	if err != nil {
		return err
	}
	fmt.Println("# Extension: per-cluster fabrics vs single black box (4 clusters)")
	fmt.Println("variant\tevents\twall_s\tks_distance")
	fmt.Printf("full\t%d\t%.4f\t0\n", truth.Perf.Events, truth.Perf.WallSeconds)
	fmt.Printf("hybrid\t%d\t%.4f\t%.4f\n", hybrid.Perf.Events, hybrid.Perf.WallSeconds, ch.KS)
	fmt.Printf("blackbox\t%d\t%.4f\t%.4f\n", blackbox.Perf.Events, blackbox.Perf.WallSeconds, cb.KS)
	return nil
}

// figFlow contrasts the flow-level baseline with packet-level simulation:
// events, wall time, and mean-FCT disagreement. Same spec, two modes.
func figFlow(durMS int, load float64, seed uint64) error {
	if durMS == 0 {
		durMS = 5
	}
	sp := closSpec(2, durMS, load, seed)
	sp.Mode = "fluid"
	fluid, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	// Packet-level run of the same workload; the long drain (3x horizon)
	// mirrors the fluid engine's 4x-horizon completion window.
	sp.Mode = "full"
	sp.DrainMS = float64(3 * durMS)
	pk, err := scenario.Run(sp)
	if err != nil {
		return err
	}
	fmt.Println("# Ablation: flow-level (fluid) baseline vs packet-level simulation")
	fmt.Println("engine\tevents\twall_s\tflows_done\tmean_fct_s")
	fmt.Printf("fluid\t%d\t%.5f\t%d\t%.6g\n",
		fluid.Perf.Events, fluid.Perf.WallSeconds, fluid.Metrics.Completed, fluid.Metrics.MeanFCTSec)
	fmt.Printf("packet\t%d\t%.5f\t%d\t%.6g\n",
		pk.Perf.Events, pk.Perf.WallSeconds, pk.Metrics.Completed, pk.Metrics.MeanFCTSec)
	return nil
}
