// Benchmarks regenerating every measured figure in the paper's evaluation.
// Each figure has one benchmark family whose sub-benchmarks are the
// figure's x-axis points; custom metrics report the figure's y-axis so
// `go test -bench .` prints the series directly:
//
//	Fig. 1  BenchmarkFig1LeafSpine/tors=N/lps=P  -> sim_s_per_wall_s
//	Fig. 4  BenchmarkFig4Accuracy                -> ks_distance
//	Fig. 5  BenchmarkFig5Speedup/clusters=C      -> speedup_x, event_ratio_x
//
// plus the ablations called out in DESIGN.md (event elision, LSTM
// prediction cost, flow-level baseline).
package approxsim_test

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/flowsim"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/scenario"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// benchDuration is the virtual time simulated per benchmark iteration.
// Short enough for quick sweeps; the cmd/figures harness runs longer spans.
const benchDuration = 2 * des.Millisecond

// BenchmarkFig1LeafSpine measures simulated-seconds per wall-second on
// leaf-spine fabrics of growing size, single-threaded versus conservative
// PDES — the paper's Figure 1.
func BenchmarkFig1LeafSpine(b *testing.B) {
	for _, tors := range []int{4, 8, 16, 32, 64} {
		for _, lps := range []int{1, 2, 4, 8} {
			if lps > tors {
				continue
			}
			name := fmt.Sprintf("tors=%d/lps=%d", tors, lps)
			b.Run(name, func(b *testing.B) {
				var simSec, wallSec float64
				var events uint64
				spec := scenario.Spec{
					Mode:      "pdes",
					Topology:  scenario.Topology{Racks: tors},
					Workload:  scenario.Workload{Load: 0.3},
					LPs:       lps,
					Seed:      17,
					HorizonMS: float64(benchDuration) / float64(des.Millisecond),
				}
				for i := 0; i < b.N; i++ {
					r, err := scenario.Run(spec)
					if err != nil {
						b.Fatal(err)
					}
					simSec += r.Perf.SimSeconds
					wallSec += r.Perf.WallSeconds
					events += r.Perf.Events
				}
				if wallSec > 0 {
					b.ReportMetric(simSec/wallSec, "sim_s/wall_s")
				}
				b.ReportMetric(float64(events)/float64(b.N), "events/run")
			})
		}
	}
}

// trainedModels lazily trains one shared model bundle for the Fig. 4/5
// benchmarks (training itself is benchmarked separately).
var (
	trainedOnce   sync.Once
	trainedModels *core.Models
	trainedErr    error
)

func sharedModels(b *testing.B) *core.Models {
	b.Helper()
	trainedOnce.Do(func() {
		cfg := core.Config{Clusters: 2, Duration: 5 * des.Millisecond, Load: 0.4, Seed: 23}
		full, err := core.RunFull(cfg, true)
		if err != nil {
			trainedErr = err
			return
		}
		trainedModels, trainedErr = core.TrainModels(full.Records, cfg.TopologyConfig(),
			core.TrainOptions{
				Hidden: 16, Layers: 1,
				NN:   nn.TrainConfig{LR: 0.02, Batches: 250, Batch: 16, BPTT: 16, Seed: 23},
				Seed: 23,
			})
	})
	if trainedErr != nil {
		b.Fatal(trainedErr)
	}
	return trainedModels
}

// BenchmarkFig4Accuracy runs the full and hybrid simulations on a held-out
// workload and reports the RTT-CDF divergence — the paper's Figure 4 reduced
// to its scalar summary (the plotted CDFs come from cmd/figures -fig 4).
func BenchmarkFig4Accuracy(b *testing.B) {
	models := sharedModels(b)
	cfg := core.Config{Clusters: 2, Duration: benchDuration, Load: 0.4, Seed: 1023}
	var ks float64
	for i := 0; i < b.N; i++ {
		full, err := core.RunFull(cfg, false)
		if err != nil {
			b.Fatal(err)
		}
		hybrid, err := core.RunHybrid(cfg, models)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := core.CompareRTT(full, hybrid, 64)
		if err != nil {
			b.Fatal(err)
		}
		ks += cmp.KS
	}
	b.ReportMetric(ks/float64(b.N), "ks_distance")
}

// BenchmarkFig5Speedup measures the wall-clock speedup and event-count
// reduction of the approximate simulation across cluster counts — the
// paper's Figure 5.
func BenchmarkFig5Speedup(b *testing.B) {
	models := sharedModels(b)
	for _, clusters := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			cfg := core.Config{
				Clusters: clusters, Duration: benchDuration,
				Load: 0.4, Seed: 31 + uint64(clusters),
			}
			var speedup, eventRatio float64
			for i := 0; i < b.N; i++ {
				sp, err := core.MeasureSpeedup(cfg, models)
				if err != nil {
					b.Fatal(err)
				}
				speedup += sp.Speedup
				eventRatio += sp.EventRatio
			}
			b.ReportMetric(speedup/float64(b.N), "speedup_x")
			b.ReportMetric(eventRatio/float64(b.N), "event_ratio_x")
		})
	}
}

// BenchmarkEventCounts is the event-elision ablation: raw scheduler events
// per engine for one fixed scenario (4 clusters, same workload family).
func BenchmarkEventCounts(b *testing.B) {
	models := sharedModels(b)
	cfg := core.Config{Clusters: 4, Duration: benchDuration, Load: 0.4, Seed: 47}
	b.Run("full", func(b *testing.B) {
		var events uint64
		for i := 0; i < b.N; i++ {
			res, err := core.RunFull(cfg, false)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	})
	b.Run("hybrid", func(b *testing.B) {
		var events uint64
		for i := 0; i < b.N; i++ {
			res, err := core.RunHybrid(cfg, models)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	})
}

// BenchmarkTraining measures the cost of the training pipeline itself
// (capture excluded): the price paid once per model, amortized over every
// at-scale simulation that reuses it.
func BenchmarkTraining(b *testing.B) {
	cfg := core.Config{Clusters: 2, Duration: 3 * des.Millisecond, Load: 0.4, Seed: 53}
	full, err := core.RunFull(cfg, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.TrainModels(full.Records, cfg.TopologyConfig(), core.TrainOptions{
			Hidden: 16, Layers: 1,
			NN:   nn.TrainConfig{LR: 0.02, Batches: 50, Batch: 16, BPTT: 16, Seed: uint64(i)},
			Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMPredict is the hidden-size ablation from the paper's §7
// discussion ("adding more complexity may increase the cost of ...
// prediction"): the per-packet prediction cost that competes with the
// events it elides.
func BenchmarkLSTMPredict(b *testing.B) {
	for _, shape := range []struct{ hidden, layers int }{
		{16, 1}, {32, 1}, {32, 2}, {64, 2}, {128, 2},
	} {
		name := fmt.Sprintf("layers=%d/hidden=%d", shape.layers, shape.hidden)
		b.Run(name, func(b *testing.B) {
			m := nn.NewModel(13, shape.hidden, shape.layers, rng.New(1))
			st := m.NewState()
			x := make([]float64, 13)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Predict(x, st)
			}
		})
	}
}

// BenchmarkFlowLevelBaseline measures the fluid simulator on the same
// workload family as the packet-level engines — the related-work baseline.
func BenchmarkFlowLevelBaseline(b *testing.B) {
	topoCfg := topology.DefaultClosConfig(4)
	topo, err := topology.Build(des.NewKernel(), topoCfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := make([]packet.HostID, len(topo.Hosts))
	for i := range hosts {
		hosts[i] = packet.HostID(i)
	}
	specs, err := traffic.GenerateSpecs(traffic.Config{
		Load: 0.4, HostBandwidthBps: topoCfg.HostLink.BandwidthBps, Seed: 59,
	}, hosts, benchDuration)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		s := flowsim.New(topo)
		for _, sp := range specs {
			s.Add(flowsim.Flow{ID: sp.ID, Src: sp.Src, Dst: sp.Dst, Size: sp.Size, Start: sp.At})
		}
		t0 := time.Now()
		s.Run(benchDuration * 4)
		wall += time.Since(t0)
	}
	b.ReportMetric(benchDuration.Seconds()*float64(b.N)/wall.Seconds(), "sim_s/wall_s")
}

// BenchmarkFullSimulation is the headline single-thread packet-level
// throughput (the Fig. 1 "single thread" series at the Clos shape used by
// Figs. 4/5).
// BenchmarkTracingOverhead is the observability layer's cost guard: the same
// full-fidelity run with tracing off, with the flight recorder alone, and
// with full span tracing. The "off" variant pays only a nil check per hook
// site, so its sim_s/wall_s must sit within run-to-run noise of what
// BenchmarkFullSimulation reports; the enabled variants price the feature.
func BenchmarkTracingOverhead(b *testing.B) {
	variants := []struct {
		name string
		opts func() obs.Options // nil = tracing off
	}{
		{"off", nil},
		{"flightrec", func() obs.Options { return obs.Options{FlightRecorder: 256, DumpWriter: io.Discard} }},
		{"trace", func() obs.Options { return obs.Options{Trace: true} }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var simSec, wallSec float64
			var events uint64
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Clusters: 2, Duration: benchDuration, Load: 0.4, Seed: 61}
				if v.opts != nil {
					cfg.Trace = obs.New(v.opts())
				}
				res, err := core.RunFull(cfg, false)
				if err != nil {
					b.Fatal(err)
				}
				simSec += res.SimTime.Seconds()
				wallSec += res.Wall.Seconds()
				events += res.Events
			}
			b.ReportMetric(simSec/wallSec, "sim_s/wall_s")
			b.ReportMetric(float64(events)/wallSec, "events/s")
		})
	}
}

func BenchmarkFullSimulation(b *testing.B) {
	for _, clusters := range []int{2, 8} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			cfg := core.Config{Clusters: clusters, Duration: benchDuration, Load: 0.4, Seed: 61}
			var simSec, wallSec float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunFull(cfg, false)
				if err != nil {
					b.Fatal(err)
				}
				simSec += res.SimTime.Seconds()
				wallSec += res.Wall.Seconds()
			}
			b.ReportMetric(simSec/wallSec, "sim_s/wall_s")
		})
	}
}
