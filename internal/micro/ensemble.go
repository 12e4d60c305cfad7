package micro

import (
	"fmt"

	"approxsim/internal/des"
	"approxsim/internal/macro"
	"approxsim/internal/nn"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
	"approxsim/internal/trace"
)

// Ensemble is the §7 "multi-scale and hierarchical" direction made concrete
// as a mixture of experts gated by the macro state: one micro model per
// congestion regime, selected per packet by the classifier. The hierarchy
// is explicit — the macro model routes, the micro experts regress — instead
// of asking one LSTM to carry all regimes in its hidden state.
//
// Experts for regimes that were rare in training fall back to a shared
// generalist trained on everything.
type Ensemble struct {
	Dir trace.Direction
	// Experts[s] serves macro state s; nil entries use Fallback.
	Experts [macro.NumStates]*nn.Model
	// Fallback is the generalist (also what a monolithic Predictor uses).
	Fallback *nn.Model

	feat   *Featurizer
	x      [FeatureDim]float64            // Predict's feature buffer
	states [macro.NumStates + 1]*nn.State // +1: fallback
	policy DropPolicy
	src    *rng.Source

	LatencyFloor   des.Time
	LatencyCeiling des.Time

	// picks counts how often each expert (index NumStates = fallback)
	// served a prediction; exposed for tests and reporting.
	picks [macro.NumStates + 1]uint64
}

// TrainEnsemble fits one expert per macro regime (where the capture has at
// least one BPTT window of examples in that regime) plus the generalist
// fallback. Training cost is roughly (live experts + 1) x cfg.NN.Batches.
func TrainEnsemble(topo *topology.Topology, dir trace.Direction,
	records []trace.Record, cfg TrainConfig) (*Ensemble, error) {

	cfg = cfg.withDefaults()
	var dirRecords []trace.Record
	for _, r := range records {
		if r.Dir == dir {
			dirRecords = append(dirRecords, r)
		}
	}
	if len(dirRecords) == 0 {
		return nil, fmt.Errorf("micro: no %v records for ensemble", dir)
	}
	// Label each example with its regime while featurizing.
	cls := macro.New(cfg.Macro)
	feat := NewFeaturizer(topo)
	floor := des.MaxTime
	var all []nn.Example
	var labels []macro.State
	for _, r := range dirRecords {
		if !r.Dropped && r.Latency <= 0 {
			continue
		}
		st := cls.Current()
		x := feat.Features(r.Entry, r.Src, r.Dst, r.Flow, r.Size, r.IsAck, st)
		ex := nn.Example{X: x, Dropped: r.Dropped}
		if !r.Dropped {
			ex.Latency = NormalizeLatency(r.Latency)
			if r.Latency < floor {
				floor = r.Latency
			}
		}
		all = append(all, ex)
		labels = append(labels, st)
		cls.Observe(r.Entry, r.Latency.Seconds(), r.Dropped)
	}
	if floor == des.MaxTime {
		floor = 0
	}
	bptt := cfg.NN.BPTT
	if bptt == 0 {
		bptt = 16
	}
	if len(all) < bptt {
		return nil, fmt.Errorf("micro: %d usable examples < one BPTT window", len(all))
	}

	e := &Ensemble{
		Dir:            dir,
		feat:           NewFeaturizer(topo),
		policy:         Sample,
		src:            rng.NewLabeled(cfg.Seed, fmt.Sprintf("ensemble-%v", dir)),
		LatencyFloor:   floor,
		LatencyCeiling: 100 * des.Millisecond,
	}
	// Generalist fallback on everything.
	e.Fallback = nn.NewModel(FeatureDim, cfg.Hidden, cfg.Layers,
		rng.NewLabeled(cfg.Seed, "ensemble-fallback"))
	nn.Train(e.Fallback, all, cfg.NN)

	// Per-regime experts where data suffices.
	for s := macro.State(0); s < macro.NumStates; s++ {
		var part []nn.Example
		for i, ex := range all {
			if labels[i] == s {
				part = append(part, ex)
			}
		}
		if len(part) < bptt {
			continue // regime too rare: fall back
		}
		m := nn.NewModel(FeatureDim, cfg.Hidden, cfg.Layers,
			rng.NewLabeled(cfg.Seed, fmt.Sprintf("ensemble-%d", s)))
		nn.Train(m, part, cfg.NN)
		e.Experts[s] = m
	}
	for i := range e.states {
		if i < macro.NumStates && e.Experts[i] != nil {
			e.states[i] = e.Experts[i].NewState()
		}
	}
	e.states[macro.NumStates] = e.Fallback.NewState()
	return e, nil
}

// Predict routes one boundary arrival to the expert for the current regime.
func (e *Ensemble) Predict(now des.Time, src, dst packet.HostID, flow uint64,
	size int32, isAck bool, st macro.State) (drop bool, latency des.Time) {

	e.feat.featuresInto(&e.x, now, src, dst, flow, size, isAck, st)
	idx := int(st)
	m := e.Experts[idx]
	if m == nil {
		idx = macro.NumStates
		m = e.Fallback
	}
	e.picks[idx]++
	prob, latRaw := m.Predict(e.x[:], e.states[idx])
	switch e.policy {
	case Threshold:
		drop = prob > 0.5
	default:
		drop = e.src.Float64() < prob
	}
	latency = DenormalizeLatency(latRaw)
	if latency < e.LatencyFloor {
		latency = e.LatencyFloor
	}
	if latency > e.LatencyCeiling {
		latency = e.LatencyCeiling
	}
	return drop, latency
}

// Picks reports how many predictions each expert served; the final slot is
// the fallback.
func (e *Ensemble) Picks() [macro.NumStates + 1]uint64 { return e.picks }

// LiveExperts counts trained (non-fallback) experts.
func (e *Ensemble) LiveExperts() int {
	n := 0
	for _, m := range e.Experts {
		if m != nil {
			n++
		}
	}
	return n
}
