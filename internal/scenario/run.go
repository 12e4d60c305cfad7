package scenario

import (
	"fmt"
	"os"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/faults"
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
	progress *obs.Progress
}

// WithModels supplies trained models in-process for hybrid/blackbox modes,
// taking precedence over the spec's models_path.
func WithModels(m *core.Models) RunOption { return func(o *runOptions) { o.models = m } }

// WithRegistry registers every component of the run into r (see
// pdes.Network.RegisterMetrics; approximated regions go under "approx"). A
// registry pins the run to a cold start — pooled baselines are shared across
// calls and cannot carry a caller's registry.
func WithRegistry(r *metrics.Registry) RunOption { return func(o *runOptions) { o.registry = r } }

// WithPDESOptions forwards extra engine options to a packet-level run — every
// mode but fluid (tracing, samplers, rollback budgets, ...). Extra options pin
// the run to a cold start: they configure a System at construction, which a
// pooled baseline has already been through.
func WithPDESOptions(opts ...pdes.Option) RunOption {
	return func(o *runOptions) { o.pdesOpts = append(o.pdesOpts, opts...) }
}

// WithPool runs eligible pdes-mode specs through p, forking a shared warmed
// baseline instead of cold-starting (see Pool).
func WithPool(p *Pool) RunOption { return func(o *runOptions) { o.pool = p } }

// WithProgress publishes live run progress into p. Packet-level runs (cold or
// pooled — unlike a registry, progress does not pin the run to a cold start)
// stream committed virtual time and executed events from a wall-clock poller
// over System.CommittedTime while the run is in flight; fluid runs publish
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
	if n.Mode == "fluid" {
		err = n.runFluid(res)
	} else {
		err = n.runPacket(res, &ro)
	}
	if err != nil {
		return nil, err
	}
	// Publish the authoritative final reading whatever the engine: fluid runs
	// get their only data point, packet runs overwrite the poller's last
	// sample with the assembled result's counts.
	ro.progress.Finish(des.Time(res.Perf.SimSeconds*float64(des.Second)), res.Perf.Events)
	return res, nil
}

// EngineConfig returns the clos-mode engine config this spec describes, for
// callers that need its resolved topology (core.TrainModels reads feature
// geometry from it). Pdes-mode specs have no core.Config; they only run
// through Run.
func (s Spec) EngineConfig() core.Config {
	return s.Normalized().coreConfig()
}

// boundary is the observed cluster's boundary a clos-mode spec acts on: the
// one a full run captures, or the one hybrid (cluster side) and blackbox
// (whole-network side) replace with models. Nil for neither.
func (s Spec) boundary() *topology.Boundary {
	switch {
	case s.Mode == "hybrid" || s.Capture == "cluster":
		return &topology.Boundary{}
	case s.Mode == "blackbox" || s.Capture == "wholenet":
		return &topology.Boundary{WholeNet: true}
	}
	return nil
}

// approximated reports whether the spec replaces a boundary with models.
func (s Spec) approximated() bool { return s.Mode == "hybrid" || s.Mode == "blackbox" }

// coreConfig assembles the clos-mode engine config (normalized specs only).
func (s Spec) coreConfig() core.Config {
	topo := s.fabric()
	return core.Config{
		Clusters: s.Topology.Clusters,
		Topology: &topo,
		DCTCP:    s.DCTCP,
	}
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
	specs, err := s.flowSpecs(topoCfg)
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

// runPacket executes a packet-level spec — full, hybrid, blackbox or pdes —
// on a network from the one builder, pdes.Build: through the pool when one is
// supplied and the spec is eligible, cold otherwise. Clos modes build one LP
// and attach the paper's pipeline (core.Attach) to its devices.
func (s Spec) runPacket(res *Result, ro *runOptions) error {
	// Pool eligibility: a pooled baseline is built once and shared, so a
	// caller's registry or construction-time engine options cannot ride
	// along, and the optimistic engine owns its snapshots (no system fork).
	if s.Mode == "pdes" && ro.pool != nil && ro.registry == nil && len(ro.pdesOpts) == 0 && s.Sync != "timewarp" {
		return ro.pool.run(s, res, ro.progress)
	}
	var models *core.Models
	if s.approximated() {
		var err error
		if models, err = s.resolveModels(ro); err != nil {
			return err
		}
	}
	net, err := s.build(ro.pdesOpts...)
	if err != nil {
		return err
	}
	var pipe *core.Pipeline
	if s.Mode != "pdes" {
		topo, err := net.Topology()
		if err != nil {
			return err
		}
		if pipe, err = core.Attach(s.coreConfig(), topo, net.Stacks, s.boundary(), models); err != nil {
			return err
		}
	}
	if ro.registry != nil {
		net.RegisterMetrics(ro.registry)
		pipe.RegisterMetrics(ro.registry)
	}
	return s.runNetwork(net, pipe, res, ro.progress, false)
}

// build constructs the spec's network with the one builder, pdes.Build: its
// topology and pre-generated workload under its synchronization algorithm,
// collective workload and fault schedule, then opts.
func (s Spec) build(opts ...pdes.Option) (*pdes.Network, error) {
	cfg := s.topologyConfig()
	specs, err := s.flowSpecs(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := s.faultSchedule(cfg)
	if err != nil {
		return nil, err
	}
	ps, err := s.collectives()
	if err != nil {
		return nil, err
	}
	algo, _ := pdes.ParseSyncAlgo(s.Sync) // grammar checked by Validate
	popts := []pdes.Option{pdes.WithSyncAlgo(algo), pdes.WithFaults(sched)}
	if len(ps) > 0 {
		popts = append(popts, pdes.WithCollectives(ps...))
	}
	return pdes.Build(cfg, max(s.LPs, 1), specs, append(popts, opts...)...)
}

// faultSchedule parses the spec's fault schedule against cfg; nil (healthy)
// when the spec has none.
func (s Spec) faultSchedule(cfg topology.Config) (*faults.Schedule, error) {
	if s.Faults == "" {
		return nil, nil
	}
	return topology.ParseFaults(cfg, s.Faults)
}

// runNetwork runs a built network to the spec's end (horizon plus drain),
// publishing live progress into prog, and fills res; pipe is the clos
// modes' attached pipeline, nil in pdes mode. Engine counters are reported
// as deltas over this run: a network restored from a pooled checkpoint
// reports its own run alone, and on a fresh network the delta is the whole
// count.
func (s Spec) runNetwork(net *pdes.Network, pipe *core.Pipeline, res *Result, prog *obs.Progress, forked bool) error {
	base := net.Sys.Stats()
	// The events clock reports this run's delta, matching res.Stats;
	// committed time is absolute (forks resume at the warm point, never
	// before it, so the reading is monotone within the run).
	stop := prog.Watch(net.Sys.CommittedTime, func() uint64 { return net.Sys.Stats()[pdes.Events] - base[pdes.Events] }, 0)
	start := time.Now()
	err := net.Sys.Run(s.end())
	wall := time.Since(start)
	stop()
	if err != nil {
		return err
	}
	st := net.Sys.Stats().Sub(base)
	if err := checkStats(st); err != nil {
		return err
	}
	res.Stats, res.Partition = st, net.Partition
	if pipe != nil {
		res.Run = pipe.Result()
	}
	res.reduce(net, s.end(), wall, forked)
	return nil
}

// flowSpecs pre-generates the open-loop workload schedule (normalized specs
// only): Poisson arrivals until the horizon, with the rack as the locality
// unit of a leaf-spine and the cluster as that of a Clos. A run that
// approximates a boundary keeps only flows touching the observed cluster
// (core.Config.ObservedHosts). Load 0 (collective-only) yields an empty
// schedule.
func (s Spec) flowSpecs(cfg topology.Config) ([]traffic.FlowSpec, error) {
	if s.Workload.Load == 0 {
		return nil, nil
	}
	pat, err := s.pattern()
	if err != nil {
		return nil, err
	}
	cdf, err := s.sizeCDF()
	if err != nil {
		return nil, err
	}
	unit := cfg.ServersPerToR
	if cfg.Kind == topology.ThreeTierClos {
		unit *= cfg.ToRsPerCluster
	}
	tc := traffic.Config{
		Pattern:          pat,
		Load:             s.Workload.Load,
		SizeCDF:          cdf,
		Seed:             s.Seed,
		HostBandwidthBps: cfg.HostLink.BandwidthBps,
		ClusterSize:      unit,
	}
	if s.approximated() {
		tc.MustTouch = s.coreConfig().ObservedHosts()
	}
	hosts := make([]packet.HostID, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	return traffic.GenerateSpecs(tc, hosts, s.horizon())
}

// checkStats enforces the engine's correctness invariants on a finished
// run's counters: a violation or a quiescent-channel send is a bug, not a
// result.
func checkStats(st pdes.Stats) error {
	if st[pdes.Violations] != 0 {
		return fmt.Errorf("scenario: pdes run committed %d causality violations (synchronization bug)", st[pdes.Violations])
	}
	if st[pdes.QuiescentSends] != 0 {
		return fmt.Errorf("scenario: %d packets crossed channels the quiescence analysis declared idle", st[pdes.QuiescentSends])
	}
	return nil
}
