package approxsim_test

import (
	"io"
	"testing"

	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
)

// BenchmarkTracingOverhead is the observability layer's cost guard: the same
// full-fidelity run with tracing off, with the flight recorder alone, and
// with full span tracing. The "off" variant pays only a nil check per hook
// site; the enabled variants price the feature against it.
func BenchmarkTracingOverhead(b *testing.B) {
	variants := []struct {
		name string
		opts func() obs.Options // nil = tracing off
	}{
		{"off", nil},
		{"flightrec", func() obs.Options { return obs.Options{FlightRecorder: 256, DumpWriter: io.Discard} }},
		{"trace", func() obs.Options { return obs.Options{Trace: true} }},
	}
	sp := scenario.Spec{
		Topology:  scenario.Topology{Clusters: 2},
		Workload:  scenario.Workload{Load: 0.4},
		Seed:      61,
		HorizonMS: 2,
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var simSec, wallSec float64
			var events uint64
			for i := 0; i < b.N; i++ {
				var opts []scenario.RunOption
				if v.opts != nil {
					opts = append(opts, scenario.WithPDESOptions(pdes.WithObs(obs.New(v.opts()))))
				}
				res, err := scenario.Run(sp, opts...)
				if err != nil {
					b.Fatal(err)
				}
				simSec += res.Perf.SimSeconds
				wallSec += res.Perf.WallSeconds
				events += res.Perf.Events
			}
			b.ReportMetric(simSec/wallSec, "sim_s/wall_s")
			b.ReportMetric(float64(events)/wallSec, "events/s")
		})
	}
}
