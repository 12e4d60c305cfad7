// Package core is the library's orchestration layer: the paper's complete
// workflow, applied to networks the one PDES network builder constructs.
//
// The workflow (paper §3, Fig. 3) runs one network twice around a training
// step:
//
//  1. A full packet-level run of a small network, with Attach recording the
//     packets that cross a Boundary at the observed cluster.
//  2. TrainModels fits the macro-state classifier parameters and the two
//     LSTM micro models (ingress and egress) from those traces.
//  3. A run of a (typically much larger) network in which the observed
//     cluster stays full-fidelity while Attach replaces everything beyond the
//     same Boundary with the trained models; the flow schedule keeps only
//     traffic touching the observed cluster (ObservedHosts).
//  4. CompareRTT quantifies accuracy as the paper does — the distribution
//     of RTTs observed by hosts in the real cluster (Fig. 4). The Fig. 5
//     speed-up is the ratio of two runs' walls and events.
//
// Front-ends describe an experiment as a scenario.Spec and call
// scenario.Run, which builds the network (pdes.Build on one LP), attaches
// the pipeline here, and runs it.
package core

import (
	"fmt"

	"approxsim/internal/approx"
	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/metrics"
	"approxsim/internal/micro"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/stats"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// Config describes the network one clos-mode experiment runs on
// (scenario.Spec.EngineConfig resolves a spec into it). The observed
// cluster, the full-fidelity one whose hosts' RTTs are measured and whose
// boundary is captured and replaced, is cluster 0. The workload lives in the
// spec's flow schedule, not here. Zero fields take defaults.
type Config struct {
	// Clusters sizes the Clos fabric (paper cluster shape: 4 switches +
	// 8 servers each). Ignored when Topology is set explicitly.
	Clusters int
	// Topology overrides the default cluster shape entirely (optional).
	Topology *topology.Config
	// DCTCP switches the whole experiment to DCTCP: every fabric/core port
	// marks at a shallow threshold (see TopologyConfig), and a network built
	// on such a fabric runs DCTCP hosts (the §3 modularity goal exercised end
	// to end — the approximation pipeline is protocol-agnostic).
	DCTCP bool
}

// TopologyConfig resolves the effective topology configuration.
func (c Config) TopologyConfig() topology.Config {
	clusters := c.Clusters
	if clusters == 0 {
		clusters = 2
	}
	cfg := topology.DefaultClosConfig(clusters)
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

// ObservedHosts returns the observed cluster's hosts, in ID order. A run that
// replaces a boundary with models keeps only flows with an endpoint among
// them: traffic wholly between approximated clusters "does not directly
// affect the measurements of the fully simulated cluster" (paper §6.2).
func (c Config) ObservedHosts() []packet.HostID {
	tc := c.TopologyConfig()
	per := tc.ToRsPerCluster * tc.ServersPerToR
	hosts := make([]packet.HostID, per)
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	return hosts
}

// RunResult is what the pipeline measured over one run. Flow and event
// counts, wall and simulated time come with the run's assembled result.
type RunResult struct {
	// RTTs are round-trip samples observed by the observed cluster's hosts,
	// in seconds.
	RTTs *stats.Sample
	// Records is the boundary trace (nil unless a boundary was captured).
	Records []trace.Record
	// FabricStats reports each approximated fabric (runs with models only).
	FabricStats []approx.Stats
}

// Pipeline is the paper's pipeline attached to one network: the boundary
// recorder of a capture run or the approximated fabrics of a run with
// models, plus the observed cluster's RTT recorder.
type Pipeline struct {
	rec     *trace.BoundaryRecorder
	fabrics []*approx.Fabric
	rtt     *trace.RTTRecorder
}

// Attach applies boundary b, the observed cluster's (b.Cluster must be 0),
// to topo, a built single-kernel network shaped by cfg.TopologyConfig()
// whose hosts run stacks, before it runs; nil b is a plain full-fidelity
// run. With models nil the traversals of b are recorded for training. With
// models set, the models replace what lies beyond the observed cluster: one
// fabric per other cluster on the cluster side, the black box on the
// whole-network side. Capturing and replacing at the same boundary is the
// paper's whole pipeline. Either way the observed cluster's RTTs are
// sampled.
func Attach(cfg Config, topo *topology.Topology, stacks []*tcp.Stack, b *topology.Boundary, models *Models) (*Pipeline, error) {
	switch {
	case b != nil && b.Cluster != 0:
		return nil, fmt.Errorf("core: boundary at cluster %d, but the observed cluster is 0", b.Cluster)
	case models != nil && (models.Egress == nil || models.Ingress == nil):
		return nil, fmt.Errorf("core: approximating a boundary requires trained models")
	case models != nil && b == nil:
		return nil, fmt.Errorf("core: models given but no boundary to replace")
	}
	p := &Pipeline{}
	switch {
	case models != nil:
		var err error
		if p.fabrics, err = splice(topo, *b, models); err != nil {
			return nil, err
		}
	case b != nil:
		p.rec = trace.AttachBoundary(topo, *b)
	}
	p.rtt = trace.AttachRTT(stacks, cfg.ObservedHosts())
	return p, nil
}

// RegisterMetrics registers every approximated fabric with reg under
// "approx". A nil Pipeline registers nothing.
func (p *Pipeline) RegisterMetrics(reg *metrics.Registry) {
	if p == nil {
		return
	}
	for _, f := range p.fabrics {
		reg.Register("approx", f)
	}
}

// Result returns what the pipeline measured; call it after the run.
func (p *Pipeline) Result() *RunResult {
	res := &RunResult{RTTs: p.rtt.Sample}
	if p.rec != nil {
		res.Records = p.rec.Records
	}
	for _, f := range p.fabrics {
		res.FabricStats = append(res.FabricStats, f.Stats())
	}
	return res
}

// splice replaces what the models stand in for around the observed
// cluster's cut: on the whole-network side the black box at cut itself, on
// the cluster side the fabric behind every other cluster's boundary. Each
// fabric gets its own predictors, seeded per fabric.
func splice(topo *topology.Topology, cut topology.Boundary, models *Models) ([]*approx.Fabric, error) {
	var fabrics []*approx.Fabric
	for c := 0; c < topo.Cfg.Clusters; c++ {
		b, eseed, iseed := topology.Boundary{Cluster: c}, models.Seed^uint64(c)<<8^1, models.Seed^uint64(c)<<8^2
		switch {
		case cut.WholeNet && c == cut.Cluster:
			b, eseed, iseed = cut, models.Seed^0xbb01, models.Seed^0xbb02
		case cut.WholeNet || c == cut.Cluster:
			continue
		}
		eg := micro.NewPredictor(models.Egress, trace.Egress, topo, micro.Sample, eseed, models.EgressFloor)
		ing := micro.NewPredictor(models.Ingress, trace.Ingress, topo, micro.Sample, iseed, models.IngressFloor)
		f, err := approx.Splice(topo, b, eg, ing, models.Macro, models.NoMacro)
		if err != nil {
			return nil, err
		}
		fabrics = append(fabrics, f)
	}
	return fabrics, nil
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
