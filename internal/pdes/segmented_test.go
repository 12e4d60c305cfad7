package pdes

import (
	"fmt"
	"testing"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/topology"
)

// Segmented-run determinism: Run(t1); Run(t2) must commit bit-identically to
// a single Run(t2). The hazard is the cross-LP packets in flight at t1 —
// stamped in (t1, t1+lookahead] — which the engine parks at the first horizon
// and re-ingests at the second Run's entry. The runs below split the horizon
// at the given cut points; the committed netsim/tcp (and collective) metric
// groups are then compared against the cold single-run reference.

// checkSegmentedClean fails on any of the invariants a segmented conservative
// run must keep: no causality violations, and no terminal drops (the
// conservative engines park — PostHorizonDrops belongs to Time Warp alone).
func checkSegmentedClean(t *testing.T, name string, res *ExperimentResult) {
	t.Helper()
	if res.Violations != 0 {
		t.Fatalf("%s: %d causality violations", name, res.Violations)
	}
	if res.PostHorizonDrops != 0 {
		t.Fatalf("%s: %d post-horizon drops (conservative engines must park, not drop)",
			name, res.PostHorizonDrops)
	}
}

// TestDeterminismPropertySegmented extends the determinism property to the
// segmented axis on the three-tier Clos and on collective workloads. (The
// leaf-spine segmented axis rides inside TestDeterminismProperty itself.)
// Every segmented run — nullmsg and barrier, all three partitioners, LP
// counts up to the cluster count — must commit the same metric snapshot as
// the cold sequential reference, with and without a ring all-reduce.
func TestDeterminismPropertySegmented(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is heavy; skipped under -short")
	}
	partitioners := []Partitioner{
		ContiguousPartitioner{},
		SpineAwarePartitioner{},
		MinCutPartitioner{},
	}

	t.Run("clos", func(t *testing.T) {
		const (
			clusters = 4
			load     = 0.4
			seed     = 9
			dur      = des.Millisecond
		)
		run := func(algo SyncAlgo, lps int, cuts []des.Time, opts ...Option) string {
			reg := metrics.NewRegistry()
			res, err := runNetwork(topology.DefaultClosConfig(clusters), lps, load, dur, seed, algo, reg, cuts, opts...)
			if err != nil {
				t.Fatalf("%v lps=%d cuts=%v: %v", algo, lps, cuts, err)
			}
			checkSegmentedClean(t, fmt.Sprintf("%v lps=%d cuts=%v", algo, lps, cuts), res)
			return committedGroups(t, reg)
		}
		ref := run(NullMessages, 1, nil)
		mid := dur / 2
		for _, algo := range []SyncAlgo{NullMessages, Barrier} {
			for _, p := range partitioners {
				for _, lps := range []int{2, clusters} {
					name := fmt.Sprintf("segmented/%v(lps=%d,%s)", algo, lps, p.Name())
					if got := run(algo, lps, []des.Time{mid}, WithPartitioner(p)); got != ref {
						t.Errorf("%s diverged from the cold sequential reference:\nref: %s\ngot: %s",
							name, ref, got)
					}
				}
			}
		}
		// Three segments with an off-grid first cut: parked packets that are
		// STILL beyond the next horizon must re-park and survive to the
		// segment that finally covers their timestamp.
		if got := run(NullMessages, clusters, []des.Time{dur / 3, 2 * dur / 3},
			WithPartitioner(MinCutPartitioner{})); got != ref {
			t.Errorf("three-segment run diverged from the cold reference:\nref: %s\ngot: %s", ref, got)
		}
	})

	t.Run("collective", func(t *testing.T) {
		// A closed-loop ring all-reduce with no Poisson background: every
		// flow launch is triggered by a completion callback, so the rank
		// once-flags and step progress must carry across the segment cut for
		// the second segment to launch the remaining steps at all.
		const (
			tors = 2
			dur  = 20 * des.Millisecond
		)
		p := collective.Params{Kind: collective.Ring, SizeBytes: 64 << 10, Iters: 2, Hosts: 4}
		cfg := topology.DefaultLeafSpineConfig(tors)
		run := func(algo SyncAlgo, lps int, cuts []des.Time) string {
			reg := metrics.NewRegistry()
			net, err := Build(cfg, lps, nil, WithSyncAlgo(algo), WithCollectives(p))
			if err != nil {
				t.Fatal(err)
			}
			net.RegisterMetrics(reg)
			for _, c := range cuts {
				if err := net.Sys.Run(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.Sys.Run(dur); err != nil {
				t.Fatal(err)
			}
			res := net.AssembleResult(net.Sys.Stats(), dur, 0)
			checkSegmentedClean(t, fmt.Sprintf("%v lps=%d cuts=%v", algo, lps, cuts), res)
			if res.CollectiveIters != p.Iters {
				t.Fatalf("%v lps=%d cuts=%v: %d iterations completed, want %d",
					algo, lps, cuts, res.CollectiveIters, p.Iters)
			}
			return committedGroupsCollective(t, reg)
		}
		ref := run(NullMessages, 1, nil)
		mid := dur / 2
		for _, algo := range []SyncAlgo{NullMessages, Barrier} {
			for _, lps := range []int{1, 2} {
				if got := run(algo, lps, []des.Time{mid}); got != ref {
					t.Errorf("segmented/%v(lps=%d) collective run diverged:\nref: %s\ngot: %s",
						algo, lps, ref, got)
				}
			}
		}
	})
}
