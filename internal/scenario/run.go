package scenario

import (
	"fmt"
	"os"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/flowsim"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// RunOption customizes one Run call with things that cannot (or must not)
// live in the serializable Spec: live objects like registries and model
// bundles, engine tuning knobs, and the baseline pool.
type RunOption func(*runOptions)

type runOptions struct {
	models   *core.Models
	registry *metrics.Registry
	pdesOpts []pdes.Option
	pool     *Pool
	coreMut  []func(*core.Config)
	progress *obs.Progress
}

// WithModels supplies trained models in-process for hybrid/blackbox modes,
// taking precedence over the spec's models_path.
func WithModels(m *core.Models) RunOption { return func(o *runOptions) { o.models = m } }

// WithRegistry registers every component of the run into r (see
// core.Config.Metrics and pdes.Network.RegisterMetrics). A registry pins the
// run to a cold start — pooled baselines are shared across calls and cannot
// carry a caller's registry.
func WithRegistry(r *metrics.Registry) RunOption { return func(o *runOptions) { o.registry = r } }

// WithPDESOptions forwards extra engine options to a pdes-mode run (tracing,
// samplers, rollback budgets, ...). Extra options pin the run to a cold start:
// they configure a System at construction, which a pooled baseline has
// already been through.
func WithPDESOptions(opts ...pdes.Option) RunOption {
	return func(o *runOptions) { o.pdesOpts = append(o.pdesOpts, opts...) }
}

// WithPool runs eligible pdes-mode specs through p, forking a shared warmed
// baseline instead of cold-starting (see Pool).
func WithPool(p *Pool) RunOption { return func(o *runOptions) { o.pool = p } }

// WithCoreConfig applies f to the assembled core.Config before a clos-mode
// run starts — the hook for observability plumbing (trace, progress, interval
// metrics writers) that is per-invocation, not part of the scenario.
func WithCoreConfig(f func(*core.Config)) RunOption {
	return func(o *runOptions) { o.coreMut = append(o.coreMut, f) }
}

// WithProgress publishes live run progress into p. Pdes-mode runs (cold or
// pooled — unlike a registry, progress does not pin the run to a cold start)
// stream committed virtual time and executed events from a wall-clock poller
// over System.CommittedTime while the run is in flight; the other engines run
// on the caller's goroutine with no mid-run committed clock, so they publish
// only the final reading. Either way p is marked done when the run returns —
// the scenario server serves GET /v1/runs/{id} straight from these gauges.
func WithProgress(p *obs.Progress) RunOption {
	return func(o *runOptions) { o.progress = p }
}

// Run executes one scenario and returns its result. This is the library's
// single entry point: every mode, every front-end. The spec is validated and
// normalized first, so callers get identical behavior whether the spec came
// from flags, a JSON request body, or literal Go.
func Run(sp Spec, opts ...RunOption) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	n := sp.Normalized()
	key, err := n.Key()
	if err != nil {
		return nil, err
	}
	var ro runOptions
	for _, o := range opts {
		o(&ro)
	}
	res := &Result{Spec: n, Key: key}
	switch n.Mode {
	case "full":
		kind := core.CaptureNone
		switch n.Capture {
		case "cluster":
			kind = core.CaptureCluster
		case "wholenet":
			kind = core.CaptureWholeNet
		}
		r, err := core.RunFullWithCapture(n.coreConfig(&ro), kind)
		if err != nil {
			return nil, err
		}
		res.Run, res.Metrics, res.Perf = r, metricsFromRun(r), perfFromRun(r)
	case "hybrid", "blackbox":
		m, err := n.resolveModels(&ro)
		if err != nil {
			return nil, err
		}
		run := core.RunHybrid
		if n.Mode == "blackbox" {
			run = core.RunBlackBox
		}
		r, err := run(n.coreConfig(&ro), m)
		if err != nil {
			return nil, err
		}
		res.Run, res.Metrics, res.Perf = r, metricsFromRun(r), perfFromRun(r)
	case "fluid":
		if err := n.runFluid(res); err != nil {
			return nil, err
		}
	case "pdes":
		if err := n.runPDES(res, &ro); err != nil {
			return nil, err
		}
	}
	// Publish the authoritative final reading whatever the engine: single-
	// kernel modes get their only (and exact) data point, pdes modes overwrite
	// the poller's last sample with the assembled result's counts.
	ro.progress.Finish(des.Time(res.Perf.SimSeconds*float64(des.Second)), res.Perf.Events)
	return res, nil
}

// EngineConfig returns the clos-mode engine config this spec describes, for
// callers that must drive the engine directly in ways Run does not cover —
// e.g. core.MeasureSpeedup, which interleaves its own full/hybrid run pairs.
// Pdes-mode specs have no core.Config; they only run through Run.
func (s Spec) EngineConfig() core.Config {
	return s.Normalized().coreConfig(&runOptions{})
}

// coreConfig assembles the clos-mode engine config (normalized specs only).
func (s Spec) coreConfig(ro *runOptions) core.Config {
	pat, _ := s.pattern() // grammar checked by Validate
	cdf, _ := s.sizeCDF() // grammar checked by Validate
	topo := s.topologyConfig()
	cfg := core.Config{
		Clusters: s.Topology.Clusters,
		Topology: &topo,
		Duration: s.horizon(),
		Drain:    s.drain(),
		Load:     s.Workload.Load,
		Pattern:  pat,
		SizeCDF:  cdf,
		Seed:     s.Seed,
		DCTCP:    s.DCTCP,
		Metrics:  ro.registry,
	}
	for _, f := range ro.coreMut {
		f(&cfg)
	}
	return cfg
}

// resolveModels finds the trained models a hybrid/blackbox run needs:
// in-process (WithModels) wins, then the spec's models_path.
func (s Spec) resolveModels(ro *runOptions) (*core.Models, error) {
	if ro.models != nil {
		return ro.models, nil
	}
	if s.ModelsPath == "" {
		return nil, fmt.Errorf("scenario: mode %q needs trained models (set models_path or pass WithModels)", s.Mode)
	}
	f, err := os.Open(s.ModelsPath)
	if err != nil {
		return nil, fmt.Errorf("scenario: models: %w", err)
	}
	defer f.Close()
	return core.LoadModels(f)
}

// runFluid executes the flow-level (fluid) baseline: no packets, just rate
// shares recomputed on flow arrival/departure. The 4x horizon gives slow
// flows room to finish, mirroring the packet modes' drain.
func (s Spec) runFluid(res *Result) error {
	topoCfg := s.topologyConfig()
	topo, err := topology.Build(des.NewKernel(), topoCfg)
	if err != nil {
		return err
	}
	specs, err := s.flowSpecsOn(topoCfg, topo.Cfg.ToRsPerCluster*topo.Cfg.ServersPerToR)
	if err != nil {
		return err
	}
	sim := flowsim.New(topo)
	for _, sp := range specs {
		sim.Add(flowsim.Flow{ID: sp.ID, Src: sp.Src, Dst: sp.Dst, Size: sp.Size, Start: sp.At})
	}
	start := time.Now()
	flows := sim.Run(s.horizon() * 4)
	wall := time.Since(start)
	var meanFCT float64
	done := 0
	for _, f := range flows {
		if f.Completed() {
			done++
			meanFCT += f.FCT().Seconds()
		}
	}
	if done > 0 {
		meanFCT /= float64(done)
	}
	res.Metrics = Metrics{Flows: len(flows), Completed: done, MeanFCTSec: meanFCT}
	res.Perf = Perf{
		WallSeconds: wall.Seconds(),
		SimSeconds:  (s.horizon() * 4).Seconds(),
		Events:      sim.Events(),
	}
	if wall > 0 {
		res.Perf.SimPerWall = res.Perf.SimSeconds / wall.Seconds()
	}
	return nil
}

// runPDES executes a pdes-mode spec, through the pool when one is supplied
// and the spec is eligible, cold otherwise.
func (s Spec) runPDES(res *Result, ro *runOptions) error {
	// Pool eligibility: a pooled baseline is built once and shared, so a
	// caller's registry or construction-time engine options cannot ride
	// along, and the optimistic engine owns its snapshots (no system fork).
	if ro.pool != nil && ro.registry == nil && len(ro.pdesOpts) == 0 && s.Sync != "timewarp" {
		return ro.pool.run(s, res, ro.progress)
	}
	cfg := s.topologyConfig()
	specs, err := s.flowSpecs(cfg)
	if err != nil {
		return err
	}
	popts, err := s.pdesOptions()
	if err != nil {
		return err
	}
	if s.Faults != "" {
		sched, err := topology.ParseFaults(cfg, s.Faults)
		if err != nil {
			return err
		}
		popts = append(popts, pdes.WithFaults(sched))
	}
	net, err := pdes.Build(cfg, s.LPs, specs, append(popts, ro.pdesOpts...)...)
	if err != nil {
		return err
	}
	if ro.registry != nil {
		net.RegisterMetrics(ro.registry)
	}
	return s.runNetwork(net, res, ro.progress, false)
}

// pdesOptions returns the engine options every pdes-mode build of the spec
// shares: synchronization algorithm, partitioner and collective workload.
func (s Spec) pdesOptions() ([]pdes.Option, error) {
	algo, _ := pdes.ParseSyncAlgo(s.Sync) // grammar checked by Validate
	part, _ := pdes.ParsePartitioner(s.Partition)
	opts := []pdes.Option{pdes.WithSyncAlgo(algo), pdes.WithPartitioner(part)}
	ps, err := s.collectives()
	if err != nil {
		return nil, err
	}
	if len(ps) > 0 {
		opts = append(opts, pdes.WithCollectives(ps...))
	}
	return opts, nil
}

// runNetwork runs a built network to the spec's horizon, publishing live
// progress into prog, and fills res. Engine counters are reported as deltas
// over this run: a network restored from a pooled checkpoint reports its own
// run alone, and on a fresh network the delta is the whole count.
func (s Spec) runNetwork(net *pdes.Network, res *Result, prog *obs.Progress, forked bool) error {
	base := net.Sys.Stats()
	// The events clock reports this run's delta, matching the assembled
	// result; committed time is absolute (forks resume at the warm point,
	// never before it, so the reading is monotone within the run).
	stop := prog.Watch(net.Sys.CommittedTime, func() uint64 { return net.Sys.Stats().Events - base.Events }, 0)
	start := time.Now()
	err := net.Sys.Run(s.horizon())
	wall := time.Since(start)
	stop()
	if err != nil {
		return err
	}
	r := net.AssembleResult(net.Sys.Stats().Sub(base), s.horizon(), wall)
	if err := checkExperiment(r); err != nil {
		return err
	}
	res.Experiment, res.Metrics, res.Perf = r, metricsFromExperiment(r), perfFromExperiment(r, forked)
	return nil
}

// flowSpecsOn is flowSpecs with an explicit host count (the clos-mode fluid
// path spans all clusters, not one rack).
func (s Spec) flowSpecsOn(cfg topology.Config, hostsPerUnit int) ([]traffic.FlowSpec, error) {
	pat, err := s.pattern()
	if err != nil {
		return nil, err
	}
	cdf, err := s.sizeCDF()
	if err != nil {
		return nil, err
	}
	hosts := make([]packet.HostID, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	return traffic.GenerateSpecs(traffic.Config{
		Pattern:          pat,
		Load:             s.Workload.Load,
		SizeCDF:          cdf,
		Seed:             s.Seed,
		HostBandwidthBps: cfg.HostLink.BandwidthBps,
		ClusterSize:      hostsPerUnit,
	}, hosts, s.horizon())
}

// checkExperiment enforces the engine's correctness invariants on a finished
// pdes run: a violation or a quiescent-channel send is a bug, not a result.
func checkExperiment(r *pdes.ExperimentResult) error {
	if r.Violations != 0 {
		return fmt.Errorf("scenario: pdes run committed %d causality violations (synchronization bug)", r.Violations)
	}
	if r.QuiescentSends != 0 {
		return fmt.Errorf("scenario: %d packets crossed channels the quiescence analysis declared idle", r.QuiescentSends)
	}
	return nil
}
