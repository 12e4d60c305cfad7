package pdes

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
)

// Determinism property test: the committed results of a leaf-spine run must
// be bit-identical across synchronization algorithms AND across every
// kernel-internal toggle that is supposed to be invisible — the event free
// list, lazy vs aggressive cancellation, and the adaptive speculation window.
// Pooling recycles event objects, lazy cancellation suppresses anti-messages,
// and the adaptive window reshapes speculation; none of them may change what
// commits. A single flipped bit in the netsim or tcp metric groups here means
// an ownership bug (a recycled event fired with stale state) or a
// cancellation bug (a send that should have been annihilated, wasn't).

// committedGroups snapshots reg and returns the JSON encoding of the groups
// that must agree across engines: netsim and tcp. The des and pdes groups
// legitimately differ (executed-event counts include nulls, rollbacks, and
// re-execution; pool hit rates depend on the toggle under test).
func committedGroups(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var groups map[string]json.RawMessage
	if err := json.Unmarshal(raw, &groups); err != nil {
		t.Fatal(err)
	}
	if len(groups["netsim"]) == 0 || len(groups["tcp"]) == 0 {
		t.Fatal("snapshot is missing the netsim or tcp group")
	}
	return fmt.Sprintf("netsim=%s tcp=%s", groups["netsim"], groups["tcp"])
}

// TestDeterminismProperty drives ~25 randomized leaf-spine workloads. Each
// seed picks a topology size, offered load, and horizon; the same workload
// then runs under null messages (the reference), barrier sync with the event
// pool alternately on and off, and one Time Warp variant from a rotating set
// covering the pool × cancellation × adaptive-window matrix. The reference is
// a SINGLE-LP run — a plain sequential simulation — and every parallel run's
// committed netsim+tcp metric snapshot must match it exactly, across LP
// counts (1, 2, and 4 where the topology permits), across all three
// partitioners (contiguous, spine-aware, min-cut), and across all three
// synchronization algorithms. Partitioning moves devices between LPs and
// reshapes which arrivals cross LP boundaries; the keyed arrival ordering
// (des.AtCtxKeyBand over netsim.ArrivalKey) is what makes that movement
// invisible to committed results. The conservative engines additionally run
// a SEGMENTED axis — Run(mid); Run(dur) — which must also match: parked
// in-flight packets make the segment cut invisible too (Clos and collective
// segmented coverage lives in TestDeterminismPropertySegmented).
func TestDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is heavy; skipped under -short")
	}

	type twVariant struct {
		name string
		opts []Option
	}
	twVariants := []twVariant{
		{"pool+lazy", nil},
		{"nopool+lazy", []Option{WithEventPool(false)}},
		{"pool+eager", []Option{WithLazyCancellation(false)}},
		{"nopool+eager", []Option{WithEventPool(false), WithLazyCancellation(false)}},
		{"pool+lazy+adaptive", []Option{WithAdaptiveWindow(10*des.Microsecond, 200*des.Microsecond)}},
	}
	partitioners := []Partitioner{
		ContiguousPartitioner{},
		SpineAwarePartitioner{},
		MinCutPartitioner{},
	}
	const seeds = 25
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			r := rng.NewLabeled(seed, "determinism-property")
			tors := 2 + 2*r.Intn(2)                        // 2 or 4 ToRs
			load := 0.3 + 0.4*r.Float64()                  // 0.3 .. 0.7
			dur := des.Millisecond * des.Time(1+r.Intn(2)) // 1ms or 2ms
			lpsHigh := tors                                // 2 or 4 (Build caps lps at the ToR count)
			cfg := topology.DefaultLeafSpineConfig(tors)

			run := func(algo SyncAlgo, lps int, opts ...Option) string {
				reg := metrics.NewRegistry()
				res, err := runNetwork(cfg, lps, load, dur, seed, algo, reg, nil, opts...)
				if err != nil {
					t.Fatalf("%v lps=%d %v: %v", algo, lps, opts, err)
				}
				if res.Violations != 0 {
					t.Fatalf("%v lps=%d: %d causality violations", algo, lps, res.Violations)
				}
				if res.QuiescentSends != 0 {
					t.Fatalf("%v lps=%d: %d sends on channels the quiescence analysis declared idle",
						algo, lps, res.QuiescentSends)
				}
				return committedGroups(t, reg)
			}

			// The sequential run is ground truth for everything below.
			ref := run(NullMessages, 1)

			check := func(name, got string) {
				if got != ref {
					t.Errorf("%s committed snapshot diverged from the sequential reference:\nref: %s\ngot: %s",
						name, ref, got)
				}
			}

			// All three partitioners under null messages at the highest LP
			// count this topology supports.
			for _, p := range partitioners {
				check(fmt.Sprintf("nullmsg(lps=%d,%s)", lpsHigh, p.Name()),
					run(NullMessages, lpsHigh, WithPartitioner(p)))
			}

			// Barrier at lps=2 with the pool toggle alternating, and at
			// lpsHigh with a rotating partitioner.
			poolOn := seed%2 == 0
			check(fmt.Sprintf("barrier(lps=2,pool=%v)", poolOn),
				run(Barrier, 2, WithEventPool(poolOn)))
			pb := partitioners[int(seed)%len(partitioners)]
			check(fmt.Sprintf("barrier(lps=%d,%s)", lpsHigh, pb.Name()),
				run(Barrier, lpsHigh, WithPartitioner(pb)))

			// One Time Warp variant from the rotating kernel-toggle matrix,
			// paired with a rotating partitioner so every (variant,
			// partitioner) combination appears across the seed sweep.
			v := twVariants[int(seed)%len(twVariants)]
			pt := partitioners[int(seed/2)%len(partitioners)]
			opts := append([]Option{WithGVTInterval(50 * time.Microsecond), WithPartitioner(pt)}, v.opts...)
			check(fmt.Sprintf("timewarp(lps=2,%s,%s)", v.name, pt.Name()),
				run(TimeWarp, 2, opts...))

			// Cross-algo at an intermediate LP count when the topology is
			// large enough to make lps=2 distinct from lpsHigh.
			if lpsHigh > 2 {
				check("nullmsg(lps=2,mincut)",
					run(NullMessages, 2, WithPartitioner(MinCutPartitioner{})))
			}

			// Segmented axis: Run(mid); Run(dur) must commit identically to
			// the single-Run reference. The cross-LP packets in flight at mid
			// — stamped in (mid, mid+lookahead] — are parked at the first
			// horizon and re-ingested at the second Run's entry; losing them
			// (the pre-park engine dropped them) skews every downstream TCP
			// exchange. Nullmsg sweeps every partitioner; barrier rotates one.
			runSeg := func(algo SyncAlgo, lps int, opts ...Option) string {
				reg := metrics.NewRegistry()
				res, err := runNetwork(cfg, lps, load, dur, seed, algo, reg, []des.Time{dur / 2}, opts...)
				if err != nil {
					t.Fatalf("segmented %v lps=%d: %v", algo, lps, err)
				}
				if res.Violations != 0 {
					t.Fatalf("segmented %v lps=%d: %d causality violations", algo, lps, res.Violations)
				}
				if res.PostHorizonDrops != 0 {
					t.Fatalf("segmented %v lps=%d: %d post-horizon drops (conservative engines park)",
						algo, lps, res.PostHorizonDrops)
				}
				return committedGroups(t, reg)
			}
			for _, p := range partitioners {
				check(fmt.Sprintf("segmented/nullmsg(lps=%d,%s)", lpsHigh, p.Name()),
					runSeg(NullMessages, lpsHigh, WithPartitioner(p)))
			}
			check(fmt.Sprintf("segmented/barrier(lps=%d,%s)", lpsHigh, pb.Name()),
				runSeg(Barrier, lpsHigh, WithPartitioner(pb)))

			// The same property must hold with a NONEMPTY fault schedule: a
			// mid-run link flap plus a spine failure, with detection delay and
			// per-viewer jitter. Fault state is a pure function of virtual
			// time, so reroutes, blackholed packets, and recovery must commit
			// identically under every engine — the first regression a
			// stateful (checkpoint-hostile) failure model would fail.
			spec := "link:tor0-spine0@300us+400us,detect=20us,jitter=10us;" +
				"switch:spine1@700us+250us,detect=30us,jitter=5us"
			fsched, err := topology.ParseFaults(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			fref := run(NullMessages, 1, WithFaults(fsched))
			fcheck := func(name, got string) {
				if got != fref {
					t.Errorf("%s faulted snapshot diverged from the sequential reference:\nref: %s\ngot: %s",
						name, fref, got)
				}
			}
			for _, p := range partitioners {
				fcheck(fmt.Sprintf("faults/nullmsg(lps=%d,%s)", lpsHigh, p.Name()),
					run(NullMessages, lpsHigh, WithFaults(fsched), WithPartitioner(p)))
			}
			pf := partitioners[int(seed)%len(partitioners)]
			fcheck(fmt.Sprintf("faults/barrier(lps=2,%s)", pf.Name()),
				run(Barrier, 2, WithFaults(fsched), WithPartitioner(pf)))
			fv := twVariants[int(seed)%len(twVariants)]
			fopts := append([]Option{WithFaults(fsched),
				WithGVTInterval(50 * time.Microsecond), WithPartitioner(pf)}, fv.opts...)
			fcheck(fmt.Sprintf("faults/timewarp(lps=2,%s,%s)", fv.name, pf.Name()),
				run(TimeWarp, 2, fopts...))
		})
	}
}
