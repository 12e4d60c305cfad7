// Package bench holds the benchmark bodies shared by `go test -bench` and the
// cmd/benchpool regression runner. Putting them here (rather than in _test.go
// files) lets the runner drive them through testing.Benchmark and pin their
// results in CI without shelling out to `go test` and scraping its output.
package bench

import (
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/pdes"
	"approxsim/internal/scenario"
)

// EventChurn measures the kernel's steady-state schedule/execute cycle: one
// self-perpetuating event that reschedules itself each time it fires. This is
// the simulator's innermost loop, and with pooling on it must not allocate at
// all — the closure is created once, and the Event object cycles through the
// free list. With pooling off, every iteration pays one Event allocation.
func EventChurn(b *testing.B, pooled bool) {
	k := des.NewKernel()
	k.SetPooling(pooled)
	var step func()
	step = func() { k.Schedule(1, step) }
	k.Schedule(1, step)
	for i := 0; i < 64; i++ { // warm the free list past the cold-start misses
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// CancelRearm measures the TCP retransmission-timer idiom: every iteration
// cancels the previously armed timer and arms a fresh one. Cancellation is
// eager — the timer leaves the heap and its object returns to the pool at
// once — so the pool must absorb both the fired and the canceled objects for
// this to stay at zero allocations per operation.
func CancelRearm(b *testing.B, pooled bool) {
	k := des.NewKernel()
	k.SetPooling(pooled)
	noop := func() {}
	var timer *des.Event
	var tick func()
	tick = func() {
		k.Cancel(timer)
		timer = k.Schedule(10, noop)
		k.Schedule(1, tick)
	}
	k.Schedule(1, tick)
	for i := 0; i < 64; i++ {
		k.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// LeafSpineConfig sizes the Time Warp leaf-spine benchmark workload.
type LeafSpineConfig struct {
	ToRs int
	LPs  int
	Load float64
	Dur  des.Time
	Seed uint64
}

// DefaultLeafSpine is the full benchmark workload; QuickLeafSpine is the CI
// smoke size (same shape, shorter horizon).
var (
	DefaultLeafSpine = LeafSpineConfig{ToRs: 4, LPs: 2, Load: 0.65, Dur: 2 * des.Millisecond, Seed: 7}
	QuickLeafSpine   = LeafSpineConfig{ToRs: 4, LPs: 2, Load: 0.65, Dur: 500 * des.Microsecond, Seed: 7}
)

// TimewarpLeafSpine runs a rollback-heavy leaf-spine workload under Time Warp
// and reports rollbacks, anti-messages, and lazy-cancellation savings per
// operation alongside the usual time and allocation figures. Comparing the
// lazy and eager variants is the "does Time Warp pay for itself" check: lazy
// should trade most anti-message traffic for reclaims at equal committed
// results.
func TimewarpLeafSpine(b *testing.B, lazy bool, cfg LeafSpineConfig) {
	b.ReportAllocs()
	var rollbacks, antis, saved uint64
	spec := scenario.Spec{
		Mode:      "pdes",
		Topology:  scenario.Topology{Racks: cfg.ToRs},
		Workload:  scenario.Workload{Load: cfg.Load},
		Sync:      "timewarp",
		LPs:       cfg.LPs,
		Seed:      cfg.Seed,
		HorizonMS: float64(cfg.Dur) / float64(des.Millisecond),
	}
	for i := 0; i < b.N; i++ {
		// scenario.Run fails the run on any causality violation.
		r, err := scenario.Run(spec, scenario.WithPDESOptions(
			pdes.WithGVTInterval(50*time.Microsecond),
			pdes.WithLazyCancellation(lazy)))
		if err != nil {
			b.Fatal(err)
		}
		res := r.Experiment
		rollbacks += res.Rollbacks
		antis += res.AntiMessages
		saved += res.LazyCancelSaved
	}
	b.ReportMetric(float64(rollbacks)/float64(b.N), "rollbacks/op")
	b.ReportMetric(float64(antis)/float64(b.N), "antis/op")
	b.ReportMetric(float64(saved)/float64(b.N), "lazy_saved/op")
}
