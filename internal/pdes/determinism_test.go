package pdes

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
)

// Determinism property test: the committed results of a leaf-spine run must
// be bit-identical across synchronization algorithms and LP counts. The event free list recycles event objects and Time Warp's
// lazy cancellation suppresses anti-messages; neither may change what
// commits. A single flipped bit in the netsim or tcp metric groups here means
// an ownership bug (a recycled event fired with stale state) or a
// cancellation bug (a send that should have been annihilated, wasn't).

// committedGroups snapshots reg and returns the JSON encoding of the groups
// that must agree across engines: netsim and tcp. The des and pdes groups
// legitimately differ (executed-event counts include nulls, rollbacks, and
// re-execution; pool hit rates depend on the engine).
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
// then runs under null messages (the reference), barrier sync, and Time Warp
// at 2 LPs on odd seeds and at the highest LP count on even ones. The
// reference is a SINGLE-LP run — a plain sequential simulation — and every
// parallel run's committed netsim+tcp metric snapshot must match it exactly,
// across LP counts (1, 2, and 4 where the topology permits) and across all
// three synchronization algorithms. The LP count moves devices between LPs
// and reshapes which arrivals cross LP boundaries; the keyed arrival ordering
// (des.Kernel.AtCtxFn keyed by netsim.ArrivalKey) is what makes that movement
// invisible to committed results. The conservative engines additionally run
// a SEGMENTED axis — Run(mid); Run(dur) — which must also match: parked
// in-flight packets make the segment cut invisible too (Clos and collective
// segmented coverage lives in TestDeterminismPropertySegmented). On the
// 4-ToR seeds a skewed workload, ranks on the first two racks, adds an uneven
// block split to every engine and to the segmented axis.
func TestDeterminismProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is heavy; skipped under -short")
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
			twLPs := lpsHigh                               // Time Warp: 2 LPs on odd seeds
			if seed%2 == 1 {
				twLPs = 2
			}
			cfg := topology.DefaultLeafSpineConfig(tors)

			run := func(algo SyncAlgo, lps int, opts ...Option) string {
				reg := metrics.NewRegistry()
				net, err := runNetwork(cfg, lps, load, dur, seed, algo, reg, nil, opts...)
				if err != nil {
					t.Fatalf("%v lps=%d %v: %v", algo, lps, opts, err)
				}
				st := net.Sys.Stats()
				if st[Violations] != 0 {
					t.Fatalf("%v lps=%d: %d causality violations", algo, lps, st[Violations])
				}
				if st[QuiescentSends] != 0 {
					t.Fatalf("%v lps=%d: %d sends on channels the quiescence analysis declared idle",
						algo, lps, st[QuiescentSends])
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

			// Null messages at the highest LP count this topology supports.
			check(fmt.Sprintf("nullmsg(lps=%d)", lpsHigh), run(NullMessages, lpsHigh))

			// Barrier at lps=2 and at lpsHigh.
			check("barrier(lps=2)", run(Barrier, 2))
			check(fmt.Sprintf("barrier(lps=%d)", lpsHigh), run(Barrier, lpsHigh))

			check(fmt.Sprintf("timewarp(lps=%d)", twLPs),
				run(TimeWarp, twLPs, withGVTInterval(50*time.Microsecond)))

			// Cross-algo at an intermediate LP count when the topology is
			// large enough to make lps=2 distinct from lpsHigh.
			if lpsHigh > 2 {
				check("nullmsg(lps=2)", run(NullMessages, 2))
			}

			// Segmented axis: Run(mid); Run(dur) must commit identically to
			// the single-Run reference. The cross-LP packets in flight at mid
			// — stamped in (mid, mid+lookahead] — are parked at the first
			// horizon and re-ingested at the second Run's entry; losing them
			// (the pre-park engine dropped them) skews every downstream TCP
			// exchange.
			runSeg := func(algo SyncAlgo, lps int) string {
				reg := metrics.NewRegistry()
				net, err := runNetwork(cfg, lps, load, dur, seed, algo, reg, []des.Time{dur / 2})
				if err != nil {
					t.Fatalf("segmented %v lps=%d: %v", algo, lps, err)
				}
				st := net.Sys.Stats()
				if st[Violations] != 0 {
					t.Fatalf("segmented %v lps=%d: %d causality violations", algo, lps, st[Violations])
				}
				if st[PostHorizonDrops] != 0 {
					t.Fatalf("segmented %v lps=%d: %d post-horizon drops (conservative engines park)",
						algo, lps, st[PostHorizonDrops])
				}
				return committedGroups(t, reg)
			}
			check(fmt.Sprintf("segmented/nullmsg(lps=%d)", lpsHigh), runSeg(NullMessages, lpsHigh))
			check(fmt.Sprintf("segmented/barrier(lps=%d)", lpsHigh), runSeg(Barrier, lpsHigh))

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
			fcheck(fmt.Sprintf("faults/nullmsg(lps=%d)", lpsHigh),
				run(NullMessages, lpsHigh, WithFaults(fsched)))
			fcheck("faults/barrier(lps=2)", run(Barrier, 2, WithFaults(fsched)))
			fcheck(fmt.Sprintf("faults/timewarp(lps=%d)", twLPs),
				run(TimeWarp, twLPs, WithFaults(fsched), withGVTInterval(50*time.Microsecond)))

			// An uneven block split: with ranks and traffic only on the first
			// two of four racks — a ring over their hosts plus Poisson flows
			// among them — the weighted placement cuts after rack 0 at 2 LPs.
			// That split must commit like the sequential run under every
			// engine and across a segment cut.
			if tors != 4 {
				return
			}
			sspecs, err := skewedSpecs(cfg, 2, load, dur, seed)
			if err != nil {
				t.Fatal(err)
			}
			ring, err := collective.Parse(fmt.Sprintf("ring:size=64KB,iters=2,hosts=%d", 2*cfg.ServersPerToR))
			if err != nil {
				t.Fatal(err)
			}
			runSkew := func(algo SyncAlgo, lps int, cuts []des.Time, opts ...Option) string {
				reg := metrics.NewRegistry()
				net, err := runSpecs(cfg, lps, sspecs, dur, algo, reg, cuts,
					append([]Option{WithCollectives(ring...)}, opts...)...)
				if err != nil {
					t.Fatalf("skewed %v lps=%d: %v", algo, lps, err)
				}
				if lps == 2 && reflect.DeepEqual(net.Partition.BlockLP, contiguousBlocks(tors, 2)) {
					t.Fatalf("skewed %v lps=2: racks kept the even split %v", algo, net.Partition.BlockLP)
				}
				st := net.Sys.Stats()
				if st[Violations] != 0 || st[QuiescentSends] != 0 {
					t.Fatalf("skewed %v lps=%d: %d violations, %d quiescent sends",
						algo, lps, st[Violations], st[QuiescentSends])
				}
				if len(cuts) > 0 && st[PostHorizonDrops] != 0 {
					t.Fatalf("segmented skewed %v lps=%d: %d post-horizon drops (conservative engines park)",
						algo, lps, st[PostHorizonDrops])
				}
				return committedGroups(t, reg)
			}
			sref := runSkew(NullMessages, 1, nil)
			scheck := func(name, got string) {
				if got != sref {
					t.Errorf("%s skewed snapshot diverged from the sequential reference:\nref: %s\ngot: %s",
						name, sref, got)
				}
			}
			scheck("skewed/nullmsg(lps=2)", runSkew(NullMessages, 2, nil))
			scheck("skewed/barrier(lps=2)", runSkew(Barrier, 2, nil))
			scheck("skewed/timewarp(lps=2)", runSkew(TimeWarp, 2, nil, withGVTInterval(50*time.Microsecond)))
			for _, algo := range []SyncAlgo{NullMessages, Barrier} {
				scheck(fmt.Sprintf("skewed/segmented/%v(lps=2)", algo),
					runSkew(algo, 2, []des.Time{dur / 2}))
			}
		})
	}
}
