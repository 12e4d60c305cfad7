// Package micro implements the paper's "micro" models (§4.2): per-packet
// LSTM predictors that, given a packet arriving at a cluster boundary,
// output a drop decision and the latency the fabric would impose.
//
// One predictor is trained per direction — ingress (core → servers) and
// egress (servers → core) — "because the distribution of flows in either
// direction can differ significantly at a given point of time."
//
// The feature vector follows the paper exactly: "the origin and destination
// servers; the ToR, Cluster, and Core switches that the packet would pass
// through in the cluster replaced by approximation; the time since the last
// packet arrived at the model; a moving average of these times; and finally,
// the current macro state of the cluster." All of these "can be calculated
// directly from the packet header information, simulation time, and
// knowledge of routing strategy" — PathFor supplies the routing knowledge.
package micro

import (
	"fmt"
	"io"
	"math"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// FeatureDim is the width of the per-packet feature vector:
// src, dst, ToR, Agg, Core, size, isAck, gap, gapMA + 4 macro one-hot.
const FeatureDim = 13

// latencyLogScale normalizes latency labels: y = log1p(ns) / latencyLogScale
// maps the microsecond-to-millisecond fabric range into roughly [0.4, 0.9],
// where the MSE head resolves well.
var latencyLogScale = math.Log1p(100e6) // 100ms in ns

// NormalizeLatency maps a fabric latency to the model's label space.
func NormalizeLatency(lat des.Time) float64 {
	if lat < 0 {
		lat = 0
	}
	return math.Log1p(float64(lat)) / latencyLogScale
}

// DenormalizeLatency inverts NormalizeLatency. It saturates at des.MaxTime
// in float64, before converting: above y ≈ 2.37 the nanosecond count leaves
// int64's range, where the conversion is implementation-defined (amd64
// gives MinInt64, arm64 saturates). +Inf and NaN saturate too, so an
// exploding latency head reads as the slowest fabric, not the fastest.
func DenormalizeLatency(y float64) des.Time {
	if y < 0 {
		y = 0
	}
	ns := math.Expm1(y * latencyLogScale)
	if !(ns < float64(des.MaxTime)) {
		return des.MaxTime
	}
	return des.Time(ns)
}

// Featurizer turns boundary arrivals into model inputs. It is stateful (the
// inter-arrival gap and its moving average) and must see packets in arrival
// order; use one per predictor instance.
type Featurizer struct {
	topo *topology.Topology

	lastArrival des.Time
	gapEWMA     float64 // nanoseconds
	hasLast     bool
}

// NewFeaturizer creates a featurizer bound to a topology (for host counts
// and deterministic ECMP path enumeration).
func NewFeaturizer(topo *topology.Topology) *Featurizer {
	return &Featurizer{topo: topo}
}

// gapScale log-normalizes inter-arrival gaps (1ns..1s useful range).
var gapScale = math.Log1p(1e9)

// Features computes the model input for a packet arriving at the boundary
// now, and advances the inter-arrival state. It returns a fresh slice;
// BuildExamples and streaming inference featurize into memory they own
// (featuresInto).
func (f *Featurizer) Features(now des.Time, src, dst packet.HostID, flow uint64,
	size int32, isAck bool, st macro.State) []float64 {

	x := new([FeatureDim]float64)
	f.featuresInto(x, now, src, dst, size, isAck, f.topo.PathFor(src, dst, flow), st)
	return x[:]
}

// featuresInto is Features writing into x instead of allocating, for a
// packet whose healthy-baseline path (topology.PathFor) is path.
func (f *Featurizer) featuresInto(x *[FeatureDim]float64, now des.Time, src, dst packet.HostID,
	size int32, isAck bool, path topology.Path, st macro.State) {

	gap := float64(0)
	if f.hasLast {
		gap = float64(now - f.lastArrival)
	}
	f.lastArrival = now
	f.hasLast = true
	// EWMA with the usual 1/8 gain (same constant TCP uses for SRTT).
	// The float64 conversion keeps the product the compiler makes of the
	// division by 8 from fusing with the addition on GOARCHes that fuse
	// (arm64), so the features have the same bits everywhere.
	f.gapEWMA += float64((gap - f.gapEWMA) / 8)

	nHosts := float64(len(f.topo.Hosts))
	nt := float64(len(f.topo.ToRs))
	na := float64(len(f.topo.Aggs))
	nc := float64(len(f.topo.Cores))

	norm := func(id packet.NodeID, n float64) float64 {
		if id < 0 || n == 0 {
			return -1 // "no such hop" marker, distinct from any real index
		}
		return float64(id) / (nHosts + nt + na + nc)
	}
	*x = [FeatureDim]float64{
		float64(src) / nHosts,
		float64(dst) / nHosts,
		norm(path.SrcToR, nt),
		norm(path.SrcAgg, na),
		norm(path.Core, nc),
		float64(size) / float64(packet.MaxFrameSize),
		boolTo01(isAck),
		math.Log1p(gap) / gapScale,
		math.Log1p(f.gapEWMA) / gapScale,
	}
	oh := st.OneHot()
	copy(x[FeatureDim-macro.NumStates:], oh[:])
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// DropPolicy selects how the drop head's probability becomes the paper's
// "binary decision whether to drop the packet".
type DropPolicy int8

// Drop policies.
const (
	// Sample draws a Bernoulli with the predicted probability (default):
	// matches the predicted drop *rate* even when probabilities hover
	// below 1/2.
	Sample DropPolicy = iota
	// Threshold drops iff probability > 1/2: fully deterministic.
	Threshold
)

// Predictor is a trained micro model for one direction plus the streaming
// state needed to apply it packet by packet.
type Predictor struct {
	Model *nn.Model
	Dir   trace.Direction

	feat   *Featurizer
	x      [FeatureDim]float64 // Predict's feature buffer
	state  *nn.State
	policy DropPolicy
	src    *rng.Source

	// LatencyFloor clamps predictions: the fabric cannot beat the physical
	// minimum of its links. Set by the trainer to the smallest latency in
	// the training data.
	LatencyFloor des.Time
	// LatencyCeiling clamps predictions from above. An under-trained model
	// can emit a latency-head value whose denormalization is astronomically
	// large; anything beyond the label-normalization scale (100ms) is
	// nonphysical for a fabric transit, so the default ceiling is 100ms.
	LatencyCeiling des.Time
}

// NewPredictor wraps a trained model for streaming inference.
func NewPredictor(m *nn.Model, dir trace.Direction, topo *topology.Topology,
	policy DropPolicy, seed uint64, floor des.Time) *Predictor {
	return &Predictor{
		Model: m, Dir: dir,
		feat:           NewFeaturizer(topo),
		state:          m.NewState(),
		policy:         policy,
		src:            rng.NewLabeled(seed, fmt.Sprintf("micro-%v", dir)),
		LatencyFloor:   floor,
		LatencyCeiling: 100 * des.Millisecond,
	}
}

// Predict consumes one boundary arrival and returns the model's decision:
// whether the fabric drops the packet and, if not, its transit latency.
// path is the packet's healthy-baseline path, topology.PathFor(src, dst,
// flow), which the caller has usually computed for routing already.
func (p *Predictor) Predict(now des.Time, src, dst packet.HostID, size int32, isAck bool,
	path topology.Path, st macro.State) (drop bool, latency des.Time) {

	p.feat.featuresInto(&p.x, now, src, dst, size, isAck, path, st)
	prob, latRaw := p.Model.Predict(p.x[:], p.state)
	switch p.policy {
	case Threshold:
		drop = prob > 0.5
	default:
		drop = p.src.Float64() < prob
	}
	latency = DenormalizeLatency(latRaw)
	if latency < p.LatencyFloor {
		latency = p.LatencyFloor
	}
	if p.LatencyCeiling > 0 && latency > p.LatencyCeiling {
		latency = p.LatencyCeiling
	}
	return drop, latency
}

// Reset clears the recurrent and inter-arrival state (new simulation run).
func (p *Predictor) Reset(topo *topology.Topology) {
	p.state = p.Model.NewState()
	p.feat = NewFeaturizer(topo)
}

// TrainConfig configures model fitting for one direction.
type TrainConfig struct {
	Hidden int // LSTM width (default 32; paper prototype: 128)
	Layers int // stacked LSTM layers (default 2, as in the paper)
	Macro  macro.Config
	NN     nn.TrainConfig
	Seed   uint64
	// NoMacro ablates the macro-state feature: training and inference both
	// see a constant Minimal state. Used by the feature-ablation
	// experiments to quantify what the hierarchical design buys.
	NoMacro bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.Layers == 0 {
		c.Layers = 2
	}
	return c
}

// BuildExamples converts one direction's boundary records into training
// examples: features from a streaming featurizer + macro labeler, labels
// from the recorded outcome. With noMacro the macro feature is the constant
// Minimal (the ablation arm). It also returns the smallest observed latency
// (the physical floor). Records must be in entry order. Every feature
// vector is cut from one backing array.
func BuildExamples(topo *topology.Topology, records []trace.Record,
	mcfg macro.Config, noMacro bool) (examples []nn.Example, floor des.Time) {

	n := 0
	for _, r := range records {
		if labeled(r) {
			n++
		}
	}
	xs := make([]float64, n*FeatureDim)
	examples = make([]nn.Example, 0, n)
	cls := macro.New(mcfg)
	feat := NewFeaturizer(topo)
	floor = des.MaxTime
	for _, r := range records {
		if !labeled(r) {
			continue
		}
		st := macro.Minimal
		if !noMacro {
			st = cls.Current()
		}
		x := xs[:FeatureDim:FeatureDim]
		xs = xs[FeatureDim:]
		feat.featuresInto((*[FeatureDim]float64)(x), r.Entry, r.Src, r.Dst, r.Size, r.IsAck,
			topo.PathFor(r.Src, r.Dst, r.Flow), st)
		ex := nn.Example{X: x, Dropped: r.Dropped}
		if !r.Dropped {
			ex.Latency = NormalizeLatency(r.Latency)
			if r.Latency < floor {
				floor = r.Latency
			}
		}
		examples = append(examples, ex)
		cls.Observe(r.Entry, r.Latency.Seconds(), r.Dropped)
	}
	if floor == des.MaxTime {
		floor = 0
	}
	return examples, floor
}

// labeled reports whether r has a label: an unresolved traversal (still
// inside the fabric when capture ended) has neither a drop nor a latency.
func labeled(r trace.Record) bool {
	return r.Dropped || r.Latency > 0
}

// Train fits a predictor for one direction from boundary records.
func Train(topo *topology.Topology, dir trace.Direction, records []trace.Record,
	cfg TrainConfig) (*Predictor, nn.TrainStats, error) {

	cfg = cfg.withDefaults()
	var dirRecords []trace.Record
	for _, r := range records {
		if r.Dir == dir {
			dirRecords = append(dirRecords, r)
		}
	}
	examples, floor := BuildExamples(topo, dirRecords, cfg.Macro, cfg.NoMacro)
	bptt := cfg.NN.BPTT
	if bptt == 0 {
		bptt = 16
	}
	if len(examples) < bptt {
		return nil, nn.TrainStats{}, fmt.Errorf(
			"micro: only %d %v records; need at least one BPTT window (%d)",
			len(examples), dir, bptt)
	}
	m := nn.NewModel(FeatureDim, cfg.Hidden, cfg.Layers, rng.NewLabeled(cfg.Seed, "micro-init"))
	stats := nn.Train(m, examples, cfg.NN)
	p := NewPredictor(m, dir, topo, Sample, cfg.Seed, floor)
	return p, stats, nil
}

// LoadModel reads a model written by nn.Model.Save and refuses one built
// for another feature width, which would otherwise panic in Predict.
func LoadModel(r io.Reader) (*nn.Model, error) {
	m, err := nn.Load(r)
	if err != nil {
		return nil, err
	}
	if m.InDim != FeatureDim {
		return nil, fmt.Errorf("micro: model takes %d inputs, the featurizer gives %d", m.InDim, FeatureDim)
	}
	return m, nil
}
