// Package core is the library's orchestration layer: it assembles the
// paper's complete workflow out of the substrate packages.
//
// The workflow (paper §3, Fig. 3) is one Run function called twice around
// a training step:
//
//  1. Run without models executes a small network in full packet-level
//     fidelity and, given a Boundary, captures the packets crossing it at
//     the observed cluster.
//  2. TrainModels fits the macro-state classifier parameters and the two
//     LSTM micro models (ingress and egress) from those traces.
//  3. Run with models executes a (typically much larger) network in which
//     the observed cluster stays full-fidelity while everything beyond the
//     same Boundary is replaced by the trained models, and traffic that
//     never touches the observed cluster is elided from the flow schedule.
//  4. CompareRTT quantifies accuracy as the paper does — the distribution
//     of RTTs observed by hosts in the real cluster (Fig. 4). The Fig. 5
//     speed-up is the ratio of two runs' walls and events.
//
// Front-ends describe an experiment as a scenario.Spec and call
// scenario.Run, which validates and hashes the spec and dispatches here.
package core

import (
	"fmt"
	"io"
	"time"

	"approxsim/internal/approx"
	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/metrics"
	"approxsim/internal/micro"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/stats"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
	"approxsim/internal/traffic"
)

// Config describes one simulation experiment. Zero fields take defaults.
type Config struct {
	// Clusters sizes the Clos fabric (paper cluster shape: 4 switches +
	// 8 servers each). Ignored when Topology is set explicitly.
	Clusters int
	// Topology overrides the default cluster shape entirely (optional).
	Topology *topology.Config
	// TCP configures every host's stack.
	TCP tcp.Config
	// DCTCP switches the whole experiment to DCTCP: hosts run the
	// proportional ECN response and every fabric/core port marks at a
	// shallow threshold (the §3 modularity goal exercised end to end —
	// the approximation pipeline is protocol-agnostic).
	DCTCP bool
	// Load is the target fraction of aggregate host bandwidth (default 0.4).
	Load float64
	// Pattern selects the workload's endpoint pairing (default Uniform).
	Pattern traffic.Pattern
	// SizeCDF overrides the flow-size distribution (default web search).
	SizeCDF *rng.EmpiricalCDF
	// Duration is how long new flows arrive (default 5ms of virtual time).
	Duration des.Time
	// Drain is extra virtual time for in-flight flows to finish
	// (default Duration/2).
	Drain des.Time
	// Seed roots all randomness.
	Seed uint64
	// ObservedCluster is the full-fidelity cluster whose hosts' RTTs are
	// measured (and whose boundary is traced during training runs).
	ObservedCluster int
	// Metrics, when non-nil, has every component of the run registered into
	// it (kernel under "des", devices under "netsim", transport under "tcp",
	// approximated fabrics under "approx"); snapshot it after the run
	// returns. The registry adds zero cost to the simulation hot path.
	Metrics *metrics.Registry
	// MetricsInterval, when positive (and Metrics and MetricsWriter are set),
	// streams interval registry deltas as JSONL to MetricsWriter every that
	// much virtual time. The sampler rides the kernel as a recurring event —
	// the same pattern as the progress reporter — so rows land at exact
	// sim-time boundaries and never race the simulation.
	MetricsInterval des.Time
	// MetricsWriter receives the JSONL time series (required when
	// MetricsInterval is set).
	MetricsWriter io.Writer
	// MetricsTag, when non-empty, labels every time-series row with a "tag"
	// field — useful when several runs of a sweep append to one writer.
	MetricsTag string
	// Trace, when non-nil, routes packet lifecycle events from every device
	// and TCP stack into it (Chrome trace-event JSON for Perfetto) and, when
	// it carries a flight recorder, feeds the recorder one record per kernel
	// event. Nil costs the hot path one pointer check per site.
	Trace *obs.Tracer
	// ProgressEvery, when positive, schedules a kernel event every that much
	// virtual time that writes a one-line progress report to ProgressWriter.
	// Running progress off the kernel keeps it race-free: the report fires
	// on the simulation goroutine, never concurrently with it.
	ProgressEvery des.Time
	// ProgressWriter receives progress lines (required when ProgressEvery is
	// set).
	ProgressWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = 2
	}
	if c.Load == 0 {
		c.Load = 0.4
	}
	if c.Duration == 0 {
		c.Duration = 5 * des.Millisecond
	}
	if c.Drain == 0 {
		c.Drain = c.Duration / 2
	}
	return c
}

// TopologyConfig resolves the effective topology configuration.
func (c Config) TopologyConfig() topology.Config {
	cfg := topology.DefaultClosConfig(c.Clusters)
	if c.Topology != nil {
		cfg = *c.Topology
	}
	if c.DCTCP {
		// DCTCP's standard shallow marking threshold (~a dozen frames).
		k := int64(12 * packet.MaxFrameSize)
		cfg.HostLink.ECNThresholdBytes = k
		cfg.FabricLink.ECNThresholdBytes = k
		cfg.CoreLink.ECNThresholdBytes = k
	}
	return cfg
}

// RunResult is the outcome of one simulation run.
type RunResult struct {
	// Summary aggregates the workload's flow results.
	Summary traffic.Summary
	// RTTs are round-trip samples observed by the observed cluster's hosts,
	// in seconds.
	RTTs *stats.Sample
	// Records is the boundary trace (nil unless capture was requested).
	Records []trace.Record
	// Events is the number of scheduler events executed.
	Events uint64
	// Wall is the host wall-clock time the run took.
	Wall time.Duration
	// SimTime is the virtual time simulated.
	SimTime des.Time
	// FabricStats reports each approximated fabric (hybrid runs only).
	FabricStats []approx.Stats
}

// SimSecondsPerSecond is the paper's Fig. 1 metric: virtual seconds
// simulated per wall-clock second.
func (r *RunResult) SimSecondsPerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.SimTime.Seconds() / r.Wall.Seconds()
}

// buildNetwork constructs kernel, topology and per-host stacks, registering
// everything with cfg.Metrics when set.
func buildNetwork(cfg Config) (*des.Kernel, *topology.Topology, []*tcp.Stack, error) {
	k := des.NewKernel()
	topo, err := topology.Build(k, cfg.TopologyConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	tcpCfg := cfg.TCP
	if cfg.DCTCP {
		tcpCfg.DCTCP = true
	}
	stacks := make([]*tcp.Stack, len(topo.Hosts))
	for i, h := range topo.Hosts {
		stacks[i] = tcp.NewStack(h, tcpCfg)
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Register("des", k)
		cfg.Metrics.Register("netsim", topo)
		for _, s := range stacks {
			cfg.Metrics.Register("tcp", s)
		}
	}
	if cfg.Trace != nil {
		buf := cfg.Trace.NewBuf(0, "sim")
		if h := obs.KernelHook(buf); h != nil {
			k.SetHook(h)
		}
		topo.SetTrace(cfg.Trace, buf)
		for _, s := range stacks {
			s.SetTrace(buf)
		}
	}
	installProgress(cfg, k)
	return k, topo, stacks, nil
}

// installSampler creates the kernel-driven interval sampler (nil when the
// config does not ask for one). The caller must Close it after the run to
// emit the final row.
func installSampler(cfg Config, k *des.Kernel) *obs.Sampler {
	if cfg.Metrics == nil || cfg.MetricsInterval <= 0 || cfg.MetricsWriter == nil {
		return nil
	}
	s := obs.NewSampler(cfg.Metrics, cfg.MetricsWriter, cfg.MetricsInterval)
	if cfg.MetricsTag != "" {
		s.SetTag(cfg.MetricsTag)
	}
	s.InstallKernel(k, cfg.Duration+cfg.Drain)
	return s
}

// installProgress schedules the recurring progress report on the kernel.
func installProgress(cfg Config, k *des.Kernel) {
	if cfg.ProgressEvery <= 0 || cfg.ProgressWriter == nil {
		return
	}
	end := cfg.Duration + cfg.Drain
	start := time.Now()
	var tick func()
	tick = func() {
		st := k.Stats()
		wall := time.Since(start).Seconds()
		rate := float64(0)
		if wall > 0 {
			rate = k.Now().Seconds() / wall
		}
		fmt.Fprintf(cfg.ProgressWriter,
			"progress t=%v wall=%.3fs sim_per_wall=%.4g events=%d pending=%d\n",
			k.Now(), wall, rate, st.Executed, k.Pending())
		if k.Now() < end {
			k.Schedule(cfg.ProgressEvery, tick)
		}
	}
	k.Schedule(cfg.ProgressEvery, tick)
}

func workloadConfig(cfg Config, topo *topology.Topology) traffic.Config {
	return traffic.Config{
		Pattern:          cfg.Pattern,
		Load:             cfg.Load,
		SizeCDF:          cfg.SizeCDF,
		Seed:             cfg.Seed,
		HostBandwidthBps: topo.Cfg.HostLink.BandwidthBps,
		ClusterSize:      topo.Cfg.ToRsPerCluster * topo.Cfg.ServersPerToR,
	}
}

// Boundary names the region around the observed cluster that a run acts
// on. A run without models records the packets crossing it (the training
// capture); a run with models replaces what lies beyond it. Capturing and
// replacing at the same boundary is the paper's whole pipeline.
type Boundary int

// Boundaries.
const (
	// NoBoundary records and replaces nothing: a plain full-fidelity run.
	NoBoundary Boundary = iota
	// ClusterBoundary is the per-cluster fabric boundary (the paper's
	// primary design): captured at the observed cluster's fabric, replaced
	// at every other cluster's.
	ClusterBoundary
	// WholeNetBoundary is the §7 "single black box": everything beyond the
	// observed cluster's aggregation switches, cores included, as one region.
	WholeNetBoundary
)

// region is one approximated part of the network: a cluster's fabric or the
// whole-network black box.
type region interface {
	metrics.Collector
	Stats() approx.Stats
	DisableMacro()
}

// Run executes one experiment on a single kernel. With models nil the whole
// network runs at packet level, and the observed cluster's traversals of
// boundary b are recorded in RunResult.Records for training. With models
// set, everything beyond b is replaced by approximated fabrics (one per
// cluster other than the observed one for ClusterBoundary, one black box for
// WholeNetBoundary), and traffic that never touches the observed cluster is
// elided from the flow schedule (§6.2).
func Run(cfg Config, b Boundary, models *Models) (*RunResult, error) {
	cfg = cfg.withDefaults()
	if models != nil && (models.Egress == nil || models.Ingress == nil) {
		return nil, fmt.Errorf("core: approximating a boundary requires trained models")
	}
	if models != nil && b == NoBoundary {
		return nil, fmt.Errorf("core: models given but no boundary to replace")
	}
	k, topo, stacks, err := buildNetwork(cfg)
	if err != nil {
		return nil, err
	}
	var rec *trace.BoundaryRecorder
	var regions []region
	switch {
	case models != nil:
		if regions, err = splice(cfg, topo, b, models); err != nil {
			return nil, err
		}
	case b == ClusterBoundary:
		rec = trace.AttachBoundary(topo, cfg.ObservedCluster)
	case b == WholeNetBoundary:
		rec = trace.AttachWholeNetworkBoundary(topo, cfg.ObservedCluster)
	}
	rtt := attachClusterRTT(topo, stacks, cfg.ObservedCluster)

	wcfg := workloadConfig(cfg, topo)
	if models != nil {
		for _, h := range topo.HostsInCluster(cfg.ObservedCluster) {
			wcfg.MustTouch = append(wcfg.MustTouch, h.ID())
		}
	}
	gen, err := traffic.NewGenerator(k, stacks, wcfg)
	if err != nil {
		return nil, err
	}
	sampler := installSampler(cfg, k)

	start := time.Now()
	gen.Start(cfg.Duration)
	k.Run(cfg.Duration + cfg.Drain)
	wall := time.Since(start)
	if err := sampler.Close(k.Now()); err != nil {
		return nil, fmt.Errorf("core: metrics time series: %w", err)
	}

	res := &RunResult{
		Summary: traffic.Summarize(gen.Results, cfg.Duration+cfg.Drain),
		RTTs:    rtt.Sample,
		Events:  k.Stats().Executed,
		Wall:    wall,
		SimTime: cfg.Duration + cfg.Drain,
	}
	if rec != nil {
		res.Records = rec.Records
	}
	for _, r := range regions {
		res.FabricStats = append(res.FabricStats, r.Stats())
	}
	return res, nil
}

// splice replaces everything beyond boundary b with models and registers
// each approximated region with cfg.Metrics when set.
func splice(cfg Config, topo *topology.Topology, b Boundary, models *Models) ([]region, error) {
	var regions []region
	if b == WholeNetBoundary {
		out := micro.NewPredictor(models.Egress, trace.Egress, topo, micro.Sample,
			models.Seed^0xbb01, models.EgressFloor)
		in := micro.NewPredictor(models.Ingress, trace.Ingress, topo, micro.Sample,
			models.Seed^0xbb02, models.IngressFloor)
		bb, err := approx.SpliceWholeNetwork(topo, cfg.ObservedCluster, out, in, models.Macro)
		if err != nil {
			return nil, err
		}
		regions = append(regions, bb)
	} else {
		for c := 0; c < topo.Cfg.Clusters; c++ {
			if c == cfg.ObservedCluster {
				continue
			}
			eg := micro.NewPredictor(models.Egress, trace.Egress, topo, micro.Sample,
				models.Seed^uint64(c)<<8^1, models.EgressFloor)
			ing := micro.NewPredictor(models.Ingress, trace.Ingress, topo, micro.Sample,
				models.Seed^uint64(c)<<8^2, models.IngressFloor)
			fab, err := approx.Splice(topo, c, eg, ing, models.Macro)
			if err != nil {
				return nil, err
			}
			regions = append(regions, fab)
		}
	}
	for _, r := range regions {
		if models.NoMacro {
			r.DisableMacro()
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Register("approx", r)
		}
	}
	return regions, nil
}

func attachClusterRTT(topo *topology.Topology, stacks []*tcp.Stack, cluster int) *trace.RTTRecorder {
	hosts := make([]packet.HostID, 0)
	for _, h := range topo.HostsInCluster(cluster) {
		hosts = append(hosts, h.ID())
	}
	return trace.AttachRTT(stacks, hosts)
}

// Models bundles everything the hybrid simulation needs: the trained micro
// models for both directions (weights are shared across fabrics; each fabric
// gets its own streaming wrapper) plus the macro classifier configuration.
type Models struct {
	Egress, Ingress           *nn.Model
	EgressFloor, IngressFloor des.Time
	Macro                     macro.Config
	// NoMacro records that the models were trained without the macro-state
	// feature; the hybrid fabric then pins the feature to Minimal too.
	NoMacro bool
	Seed    uint64
}

// TrainOptions sizes and drives model fitting.
type TrainOptions struct {
	// Hidden and Layers size the LSTMs (defaults 32 and 2; the paper's
	// prototype used 128 and 2 — set PaperScale for that).
	Hidden, Layers int
	// PaperScale selects the paper's full prototype: 2x128 LSTM. Slow on
	// one CPU; intended for the record, not the test suite.
	PaperScale bool
	// NN carries optimizer settings (zero values take nn defaults: SGD
	// momentum 0.9, lr 1e-4 at paper scale; tests override).
	NN nn.TrainConfig
	// Macro configures the state classifier used for features.
	Macro macro.Config
	// NoMacro ablates the macro-state feature (constant Minimal at train
	// and inference time) — the macro on/off experiment.
	NoMacro bool
	// Seed roots initialization and drop sampling.
	Seed uint64
}

// TrainModels fits ingress and egress micro models from a boundary capture.
// topoCfg must describe the topology the records came from (for feature
// extraction); the returned models can be applied to larger topologies —
// the paper's central generalization step.
func TrainModels(records []trace.Record, topoCfg topology.Config, opts TrainOptions) (*Models, error) {
	if opts.PaperScale {
		opts.Hidden, opts.Layers = 128, 2
		if opts.NN.Batches == 0 {
			opts.NN.Batches = 50_000
		}
	}
	// A throwaway topology instance provides feature geometry.
	topo, err := topology.Build(des.NewKernel(), topoCfg)
	if err != nil {
		return nil, err
	}
	mcfg := micro.TrainConfig{
		Hidden: opts.Hidden, Layers: opts.Layers,
		Macro: opts.Macro, NN: opts.NN, Seed: opts.Seed,
		NoMacro: opts.NoMacro,
	}
	eg, _, err := micro.Train(topo, trace.Egress, records, mcfg)
	if err != nil {
		return nil, fmt.Errorf("core: training egress model: %w", err)
	}
	ing, _, err := micro.Train(topo, trace.Ingress, records, mcfg)
	if err != nil {
		return nil, fmt.Errorf("core: training ingress model: %w", err)
	}
	return &Models{
		Egress: eg.Model, Ingress: ing.Model,
		EgressFloor: eg.LatencyFloor, IngressFloor: ing.LatencyFloor,
		Macro: opts.Macro, NoMacro: opts.NoMacro, Seed: opts.Seed,
	}, nil
}

// RTTComparison is the Fig. 4 deliverable: both CDFs plus the KS distance.
type RTTComparison struct {
	Full, Approx []stats.CDFPoint
	KS           float64
}

// CompareRTT reduces two runs to the paper's accuracy comparison.
// maxPoints bounds each CDF series (128 is plenty for plotting).
func CompareRTT(full, hybrid *RunResult, maxPoints int) (*RTTComparison, error) {
	if full.RTTs.Len() == 0 || hybrid.RTTs.Len() == 0 {
		return nil, fmt.Errorf("core: both runs need RTT samples (full %d, hybrid %d)",
			full.RTTs.Len(), hybrid.RTTs.Len())
	}
	return &RTTComparison{
		Full:   full.RTTs.CDF(maxPoints),
		Approx: hybrid.RTTs.CDF(maxPoints),
		KS:     stats.KSDistance(full.RTTs, hybrid.RTTs),
	}, nil
}
