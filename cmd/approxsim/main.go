// Command approxsim runs a single data-center simulation — full-fidelity,
// hybrid (approximated), flow-level, or PDES-parallel — and prints a
// workload summary. It is a thin front-end over the scenario API: the flags
// assemble a scenario.Spec (see internal/scenario) and scenario.Run executes
// it, so the exact same experiment can be replayed through the figures
// command, the whatif example, or a JSON POST to the simd scenario server.
//
// Usage:
//
//	approxsim -mode full -clusters 4 -dur 10 -load 0.4
//	approxsim -mode hybrid -clusters 8 -models models.bin
//	approxsim -mode fluid -clusters 4
//	approxsim -mode pdes -racks 8 -lps 4
//	approxsim -mode pdes -racks 8 -lps 4 -sync timewarp
//
// PDES mode synchronizes its logical processes with -sync: nullmsg
// (conservative null messages, the default), barrier (global barriers), or
// timewarp (optimistic with rollback). Racks are placed onto LPs in
// contiguous runs cut by the workload's weight, and spine f on LP f % lps.
// Committed results are bit-identical across LP counts and algorithms; only
// the synchronization overhead changes. Time Warp has one fixed
// configuration — a 50µs speculation window past GVT, a GVT round every
// 200µs of wall time, a checkpoint every 256 events, and lazy cancellation —
// and -max-rollbacks is its only knob.
//
// Hybrid mode loads models produced by the trainmodel command; if -models
// is omitted it trains a small model in-process first (convenient for
// exploration, slower to start).
//
// Observability:
//
//	-metrics             dump a JSON metrics snapshot to stdout at end of run
//	-metrics-interval N  stream interval metrics deltas as JSONL every N virtual ms
//	-metrics-out FILE    where the JSONL time series goes (default metrics.jsonl)
//	-trace FILE          write a Chrome trace-event JSON (open in Perfetto)
//	-flight-recorder N   keep a ring of the last N trace events per LP; dumped
//	                     automatically on causality violation or rollback abort
//	-dump FILE           where flight-recorder dumps go (default flight_recorder.json)
//	-max-rollbacks N     abort a timewarp run after N rollbacks (0 = unlimited)
//	-progress N          print a progress line to stderr every N committed virtual ms
//	-pprof ADDR          serve net/http/pprof on ADDR (e.g. localhost:6060)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
)

func main() {
	f := scenario.Bind(flag.CommandLine)
	var (
		metricsOut = flag.Bool("metrics", false, "dump a JSON metrics snapshot to stdout at end of run")
		intervalMS = flag.Float64("metrics-interval", 0, "stream interval metrics deltas as JSONL every N virtual ms (0 = off)")
		seriesPath = flag.String("metrics-out", "metrics.jsonl", "JSONL time-series output path (with -metrics-interval)")
		tracePath  = flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
		flightRec  = flag.Int("flight-recorder", 0, "flight-recorder ring capacity in events per LP (0 = off)")
		dumpPath   = flag.String("dump", "flight_recorder.json", "flight-recorder dump output path (with -flight-recorder)")
		maxRB      = flag.Uint64("max-rollbacks", 0, "abort a timewarp run after N rollbacks (0 = unlimited)")
		progressMS = flag.Int("progress", 0, "progress line to stderr every N virtual ms (0 = off)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	startPprof(*pprofAddr)
	opts := obsOptions{
		metrics:      *metricsOut,
		progress:     des.Time(*progressMS) * des.Millisecond,
		interval:     des.Time(*intervalMS * float64(des.Millisecond)),
		seriesPath:   *seriesPath,
		tracePath:    *tracePath,
		flightRec:    *flightRec,
		dumpPath:     *dumpPath,
		maxRollbacks: *maxRB,
	}
	if err := run(f, opts); err != nil {
		fmt.Fprintln(os.Stderr, "approxsim:", err)
		os.Exit(1)
	}
}

// obsOptions carries the observability flags into run.
type obsOptions struct {
	metrics      bool
	progress     des.Time
	interval     des.Time // virtual time between JSONL rows (0 = off)
	seriesPath   string
	tracePath    string
	flightRec    int
	dumpPath     string
	maxRollbacks uint64
}

// registry returns the registry to wire into the run — nil only when neither
// the end-of-run snapshot nor the interval time series was requested.
func (o obsOptions) registry() *metrics.Registry {
	if !o.metrics && o.interval <= 0 {
		return nil
	}
	return metrics.NewRegistry()
}

// obsRun is the per-run observability state assembled from the flags: the
// shared tracer (nil when both -trace and -flight-recorder are off) and the
// files it writes into.
type obsRun struct {
	tracer *obs.Tracer
	series *os.File
	dump   *os.File
}

// build opens the output files and constructs the tracer. Call close (always)
// and finish (on success) when the run is over.
func (o obsOptions) build() (*obsRun, error) {
	r := &obsRun{}
	if o.interval > 0 {
		f, err := os.Create(o.seriesPath)
		if err != nil {
			return nil, err
		}
		r.series = f
	}
	if o.flightRec > 0 {
		f, err := os.Create(o.dumpPath)
		if err != nil {
			r.close()
			return nil, err
		}
		r.dump = f
	}
	if o.tracePath != "" || o.flightRec > 0 {
		topts := obs.Options{Trace: o.tracePath != "", FlightRecorder: o.flightRec}
		if r.dump != nil {
			topts.DumpWriter = r.dump
		}
		r.tracer = obs.New(topts)
	}
	return r, nil
}

// sampler builds the interval sampler over reg (nil when off).
func (o obsOptions) sampler(r *obsRun, reg *metrics.Registry) *obs.Sampler {
	if r.series == nil {
		return nil
	}
	return obs.NewSampler(reg, r.series, o.interval)
}

func (r *obsRun) close() {
	if r.series != nil {
		r.series.Close()
	}
	if r.dump != nil {
		r.dump.Close()
	}
}

// finish writes the Chrome trace (validated against the trace-event schema
// before it hits disk) and reports where every artifact went.
func (r *obsRun) finish(o obsOptions) error {
	if r.tracer != nil && o.tracePath != "" {
		var buf bytes.Buffer
		if err := r.tracer.WriteChromeTrace(&buf); err != nil {
			return err
		}
		if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			return fmt.Errorf("internal error: trace fails schema validation: %w", err)
		}
		if err := os.WriteFile(o.tracePath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "approxsim: trace written to %s (open in https://ui.perfetto.dev)\n", o.tracePath)
	}
	if r.series != nil {
		fmt.Fprintf(os.Stderr, "approxsim: metrics time series written to %s\n", o.seriesPath)
	}
	if r.tracer != nil && r.tracer.LastDumpReason() != "" {
		fmt.Fprintf(os.Stderr, "approxsim: flight recorder dumped to %s (trigger: %s)\n",
			o.dumpPath, r.tracer.LastDumpReason())
	}
	return nil
}

// startPprof serves the pprof HTTP endpoints for profiling live runs.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		fmt.Fprintf(os.Stderr, "approxsim: pprof on http://%s/debug/pprof/\n", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "approxsim: pprof:", err)
		}
	}()
}

// snapshotGroups are the subsystems every -metrics snapshot reports. Modes
// that do not exercise a subsystem (e.g. pdes in a hybrid run) still emit
// its headline counters as zeros so the JSON schema is stable across modes.
var snapshotGroups = map[string][]string{
	"des":        {"events_executed", "events_scheduled", "events_canceled"},
	"pdes":       {"null_messages", "barriers", "cross_lp_packets", "causality_violations", "rollbacks", "anti_messages", "gvt_advances"},
	"netsim":     {"tx_packets", "drops", "ecn_marks"},
	"tcp":        {"flows_started", "flows_completed", "retransmissions", "timeouts"},
	"approx":     {"egress_packets", "ingress_packets", "model_invocations"},
	"collective": {"flows_launched", "steps_done", "iterations_done"},
}

// dumpMetrics writes the snapshot JSON to stdout, stubbing zero counters for
// any canonical group the selected mode did not register.
func dumpMetrics(reg *metrics.Registry) error {
	if reg == nil {
		return nil
	}
	present := map[string]bool{}
	for _, g := range reg.Groups() {
		present[g] = true
	}
	for _, g := range []string{"des", "pdes", "netsim", "tcp", "approx", "collective"} {
		if present[g] {
			continue
		}
		g := g
		reg.RegisterFunc(g, func(e *metrics.Emitter) {
			for _, name := range snapshotGroups[g] {
				e.Counter(name, 0)
			}
		})
	}
	out, err := json.MarshalIndent(reg.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func run(f *scenario.Flags, opts obsOptions) error {
	sp := f.Spec()
	if err := sp.Validate(); err != nil {
		return err
	}
	reg := opts.registry()
	orun, err := opts.build()
	if err != nil {
		return err
	}
	defer orun.close()

	// Every packet-level mode takes the engine options; fluid ignores them.
	ropts := []scenario.RunOption{scenario.WithPDESOptions(pdesOptions(opts, orun, reg)...)}
	if reg != nil {
		ropts = append(ropts, scenario.WithRegistry(reg))
	}
	if (f.Mode == "hybrid" || f.Mode == "blackbox") && f.Models == "" {
		m, err := trainInProcess(sp, f.Mode)
		if err != nil {
			return err
		}
		ropts = append(ropts, scenario.WithModels(m))
	}
	stopProgress := func() {}
	if opts.progress > 0 {
		prog := &obs.Progress{}
		ropts = append(ropts, scenario.WithProgress(prog))
		stopProgress = reportProgress(os.Stderr, prog, opts.progress)
	}

	res, runErr := scenario.Run(sp, ropts...)
	stopProgress()
	if runErr == nil {
		report(res)
	}
	// Flush the trace even after a failed run — an aborted timewarp run's
	// trace (and flight-recorder dump, already on disk) is exactly what you
	// want open in Perfetto.
	if ferr := orun.finish(opts); ferr != nil && runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		return runErr
	}
	// The registry may exist only to feed the interval sampler; the end-of-run
	// snapshot on stdout is still opt-in via -metrics.
	if opts.metrics {
		return dumpMetrics(reg)
	}
	return nil
}

// reportProgress prints a progress line to w whenever the run's committed
// virtual time crosses a multiple of every, and a last line when the
// returned stop is called. It reads the same committed-time gauges the
// scenario server serves for GET /v1/runs/{id}, so it works in every mode:
// packet-level runs are read live, fluid runs publish once at the end.
func reportProgress(w io.Writer, prog *obs.Progress, every des.Time) (stop func()) {
	start := time.Now()
	line := func() {
		t, wall := prog.Committed(), time.Since(start).Seconds()
		rate := float64(0)
		if wall > 0 {
			rate = t.Seconds() / wall
		}
		fmt.Fprintf(w, "progress t=%v wall=%.3fs sim_per_wall=%.4g events=%d\n", t, wall, rate, prog.Events())
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for next := every; ; {
			select {
			case <-quit:
				return
			case <-ticker.C:
				if t := prog.Committed(); t >= next {
					line()
					next = t - t%every + every
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		line()
	}
}

// pdesOptions translates the observability flags into engine options for a
// packet-level run. System.Run manages the interval sampler's lifecycle: on
// one LP it rides the kernel, on several it polls the committed-time clock,
// because under optimistic sync a kernel-scheduled sample could itself be
// rolled back.
func pdesOptions(opts obsOptions, orun *obsRun, reg *metrics.Registry) []pdes.Option {
	var popts []pdes.Option
	if orun.tracer != nil {
		popts = append(popts, pdes.WithObs(orun.tracer))
	}
	if s := opts.sampler(orun, reg); s != nil {
		popts = append(popts, pdes.WithSampler(s))
	}
	if opts.maxRollbacks > 0 {
		popts = append(popts, pdes.WithMaxRollbacks(opts.maxRollbacks))
	}
	return popts
}

// trainInProcess fits a small model bundle when no -models file was given:
// a boundary-captured full-fidelity run through the same scenario API
// (cluster boundary for hybrid, whole-network for blackbox), then a quick
// training pass.
func trainInProcess(sp scenario.Spec, mode string) (*core.Models, error) {
	capture := "cluster"
	if mode == "blackbox" {
		capture = "wholenet"
	}
	fmt.Fprintf(os.Stderr, "approxsim: no -models given; training a small %s model in-process\n", capture)
	trainSp := sp.Normalized()
	trainSp.Mode = "full"
	trainSp.ModelsPath = ""
	trainSp.Capture = capture
	if mode == "hybrid" {
		// Cluster-boundary models generalize across scale; capture small.
		trainSp.Topology.Clusters = 2
	}
	res, err := scenario.Run(trainSp)
	if err != nil {
		return nil, err
	}
	return core.TrainModels(res.Run.Records, trainSp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 300, Batch: 16, BPTT: 16, Seed: sp.Seed},
		Seed: sp.Seed,
	})
}

// report prints the result summary for any mode.
func report(res *scenario.Result) {
	m, p := res.Metrics, res.Perf
	fmt.Printf("mode=%s sim_time=%.6gs wall=%.4fs sim_per_wall=%.4g events=%d\n",
		res.Spec.Mode, p.SimSeconds, p.WallSeconds, p.SimPerWall, p.Events)
	fmt.Printf("flows=%d completed=%d mean_fct=%.6gs p99_fct=%.6gs goodput=%.4g bps\n",
		m.Flows, m.Completed, m.MeanFCTSec, m.P99FCTSec, m.GoodputBps)
	fmt.Printf("retransmissions=%d timeouts=%d rtt_samples=%d\n", m.Retrans, m.Timeouts, m.RTTSamples)
	if m.RTTSamples > 0 {
		fmt.Printf("rtt p50=%.6gs p99=%.6gs\n", m.RTTP50Sec, m.RTTP99Sec)
	}
	if r := res.Run; r != nil {
		for i, fs := range r.FabricStats {
			fmt.Printf("fabric[%d]: egress=%d ingress=%d drops=%d/%d conflicts=%d\n",
				i, fs.EgressPackets, fs.IngressPackets,
				fs.EgressDrops, fs.IngressDrops, fs.Conflicts)
		}
	}
	if p := res.Partition; p != nil && res.Spec.Mode == "pdes" {
		fmt.Printf("sync=%s lps=%d", res.Spec.Sync, res.Spec.LPs)
		for c, v := range res.Stats {
			fmt.Printf(" %s=%d", pdes.Counter(c), v)
		}
		fmt.Println()
		fmt.Printf("partition=%s cut_edges=%d active_channels=%d lp_load_imbalance=%.3f\n",
			res.Spec.Partition, p.CutEdges, p.Channels, p.LoadImbalance)
		if res.Spec.Faults != "" {
			fmt.Printf("fault_drops=%d route_drops=%d\n", m.FaultDrops, m.RouteDrops)
		}
		if res.Spec.Workload.Collective != "" {
			fmt.Printf("collective=%s iters=%d mean_iter=%.1fus max_iter=%.1fus\n",
				res.Spec.Workload.Collective, m.CollectiveIters,
				m.CollectiveMeanIterSec*1e6, m.CollectiveMaxIterSec*1e6)
		}
	}
}
