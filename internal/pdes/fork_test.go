package pdes

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// forkSpecs is poissonSpecs for the fork tests. The warm-fork tests pass a
// high load so that, with microsecond lookahead, some cross-LP packet is
// reliably in flight at the warm point — the parked-buffer case.
func forkSpecs(t *testing.T, cfg topology.Config, load float64, dur des.Time, seed uint64) []traffic.FlowSpec {
	t.Helper()
	specs, err := poissonSpecs(cfg, load, dur, seed)
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// sortedFlows canonicalizes a result set for exact comparison.
func sortedFlows(rs []tcp.FlowResult) []tcp.FlowResult {
	out := append([]tcp.FlowResult(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// mustEqualFlows asserts two runs committed bit-identical flow outcomes.
func mustEqualFlows(t *testing.T, label string, a, b []tcp.FlowResult) {
	t.Helper()
	a, b = sortedFlows(a), sortedFlows(b)
	if len(a) != len(b) {
		t.Fatalf("%s: %d flows vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: flow %d differs:\n cold %+v\n fork %+v", label, a[i].FlowID, a[i], b[i])
		}
	}
}

// TestForkMatchesColdStart proves the fork property on both fabric kinds:
// restoring a t=0 checkpoint of a healthy build and installing a variant's
// fault schedule with SetFaults commits flow results bit-identical to a cold
// start built with that schedule — for the healthy variant and every
// faulted one, across multiple restores of the same pristine checkpoint.
func TestForkMatchesColdStart(t *testing.T) {
	const (
		lps  = 2
		seed = 7
		dur  = 2 * des.Millisecond
	)
	for _, tc := range []struct {
		name   string
		cfg    topology.Config
		racks  int // racks carrying traffic; 0 = all
		faults []string
	}{
		{"leafspine", topology.DefaultLeafSpineConfig(4), 0, []string{
			"switch:spine0@500us+600us,detect=50us,jitter=10us",
		}},
		// Traffic on the first two racks only: the blocks split unevenly.
		{"leafspine-skewed", topology.DefaultLeafSpineConfig(4), 2, []string{
			"switch:spine0@500us+600us,detect=50us,jitter=10us",
		}},
		{"clos", topology.DefaultClosConfig(4), 0, []string{
			"link:agg0-core0@500us+600us,detect=50us,jitter=10us",
			"switch:core1@500us+600us,detect=50us,jitter=10us",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			specs := forkSpecs(t, tc.cfg, 0.3, dur, seed)
			if tc.racks > 0 {
				// Fewer hosts carry fewer flows: at load 0.3 none crosses the
				// outage, and the variant would prove nothing.
				var err error
				if specs, err = skewedSpecs(tc.cfg, tc.racks, 0.9, dur, seed); err != nil {
					t.Fatal(err)
				}
			}
			variants := []*faults.Schedule{nil} // healthy first
			for _, spec := range tc.faults {
				sched, err := topology.ParseFaults(tc.cfg, spec)
				if err != nil {
					t.Fatal(err)
				}
				variants = append(variants, sched)
			}
			colds := make([]*Network, len(variants))
			for i, sched := range variants {
				net, err := Build(tc.cfg, lps, specs, WithFaults(sched))
				if err != nil {
					t.Fatal(err)
				}
				if err := net.Sys.Run(dur); err != nil {
					t.Fatal(err)
				}
				colds[i] = net
				// The healthy run must lose nothing; every faulted one must
				// change the outcome, or its fork proves nothing.
				if drops := net.FaultDrops(); i == 0 && drops != 0 {
					t.Fatalf("healthy cold run recorded %d fault drops", drops)
				} else if i > 0 && drops == 0 && reflect.DeepEqual(
					sortedFlows(net.Results()), sortedFlows(colds[0].Results())) {
					t.Fatalf("variant %d (%s) changed nothing", i, tc.faults[i-1])
				}
			}

			// One healthy baseline, checkpointed at t=0. Placement and its
			// stats read only the workload, so it places and reports like
			// every cold faulted build.
			base, err := Build(tc.cfg, lps, specs)
			if err != nil {
				t.Fatal(err)
			}
			for i, cold := range colds {
				if !reflect.DeepEqual(cold.Partition, base.Partition) {
					t.Fatalf("variant %d partition %+v, baseline %+v", i, *cold.Partition, *base.Partition)
				}
			}
			if tc.racks > 0 && reflect.DeepEqual(base.Partition.BlockLP, contiguousBlocks(len(base.Partition.BlockLP), lps)) {
				t.Fatalf("skewed workload kept the even split %v", base.Partition.BlockLP)
			}
			ckpt, err := base.Sys.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if ckpt.At() != 0 {
				t.Fatalf("t=0 checkpoint stamped at %v", ckpt.At())
			}
			for round := 0; round < 2; round++ {
				for i, sched := range variants {
					if err := base.Sys.Restore(ckpt); err != nil {
						t.Fatal(err)
					}
					if err := base.SetFaults(sched); err != nil {
						t.Fatal(err)
					}
					pre := base.Sys.Stats()
					if err := base.Sys.Run(dur); err != nil {
						t.Fatal(err)
					}
					if delta := base.Sys.Stats().Sub(pre); delta[Violations] != 0 {
						t.Fatalf("round %d variant %d: %d causality violations", round, i, delta[Violations])
					}
					mustEqualFlows(t, fmt.Sprintf("variant %d fork", i), colds[i].Results(), base.Results())
					if got, want := base.FaultDrops(), colds[i].FaultDrops(); got != want {
						t.Fatalf("round %d variant %d: fork fault drops %d, cold %d", round, i, got, want)
					}
				}
			}
		})
	}
}

// TestWarmCheckpointFork proves the named-warm-point path, now multi-LP: a
// baseline run healthy to a warm point, checkpointed, then continued under a
// fault schedule whose first fault lies beyond the warm point, commits results
// bit-identical to a cold faulted run over the whole horizon — for LP counts
// beyond one, where the warm checkpoint must carry the cross-LP packets in
// flight at the warm point (the parked buffer), and under both conservative
// engines. Each checkpoint is restored twice to prove it stays pristine.
func TestWarmCheckpointFork(t *testing.T) {
	const (
		tors = 4
		seed = 11
		warm = 1 * des.Millisecond
		dur  = 3 * des.Millisecond
	)
	cfg := topology.DefaultLeafSpineConfig(tors)
	specs := forkSpecs(t, cfg, 0.9, dur, seed)
	sched, err := topology.ParseFaults(cfg, "switch:spine1@1500us+500us,detect=40us")
	if err != nil {
		t.Fatal(err)
	}

	coldNet, err := Build(cfg, 1, specs, WithFaults(sched))
	if err != nil {
		t.Fatal(err)
	}
	if err := coldNet.Sys.Run(dur); err != nil {
		t.Fatal(err)
	}

	// The multi-LP variants only prove something if a packet was actually in
	// flight across an LP boundary at the warm point; track the total so the
	// test fails loudly if the workload stops exercising the parked buffer.
	var multiLPParked uint64
	for _, tc := range []struct {
		algo SyncAlgo
		lps  int
	}{
		{NullMessages, 1},
		{NullMessages, 2},
		{NullMessages, 4},
		{Barrier, 2},
		{Barrier, 4},
	} {
		name := fmt.Sprintf("%v-lps%d", tc.algo, tc.lps)
		warmNet, err := Build(cfg, tc.lps, specs, WithSyncAlgo(tc.algo))
		if err != nil {
			t.Fatal(err)
		}
		if err := warmNet.Sys.Run(warm); err != nil {
			t.Fatal(err)
		}
		ckpt, err := warmNet.Sys.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ckpt.At() != warm {
			t.Fatalf("%s: warm checkpoint stamped at %v, want %v", name, ckpt.At(), warm)
		}
		if st := warmNet.Sys.Stats(); tc.lps > 1 {
			multiLPParked += st[ParkedArrivals]
			if st[PostHorizonDrops] != 0 {
				t.Fatalf("%s: %d packets dropped at the warm point instead of parked",
					name, st[PostHorizonDrops])
			}
		}
		for round := 0; round < 2; round++ {
			if err := warmNet.Sys.Restore(ckpt); err != nil {
				t.Fatal(err)
			}
			if err := warmNet.SetFaults(sched); err != nil {
				t.Fatal(err)
			}
			pre := warmNet.Sys.Stats()
			if err := warmNet.Sys.Run(dur); err != nil {
				t.Fatal(err)
			}
			if delta := warmNet.Sys.Stats().Sub(pre); delta[Violations] != 0 {
				t.Fatalf("%s round %d: %d causality violations", name, round, delta[Violations])
			}
			mustEqualFlows(t, name+" warm fork", coldNet.Results(), warmNet.Results())
			if got, want := warmNet.FaultDrops(), coldNet.FaultDrops(); got != want {
				t.Fatalf("%s round %d: warm-fork fault drops %d, cold %d", name, round, got, want)
			}
		}
	}
	if multiLPParked == 0 {
		t.Error("no multi-LP warm checkpoint had packets in flight; the workload no longer exercises the parked buffer")
	}
}

// TestForkAfterSegmentedRun is the regression the parked-buffer checkpoint
// exists for: warm a multi-LP baseline in TWO segments (so the warm state
// itself was assembled through a park/resume cycle), checkpoint, then fork
// twice from that same checkpoint. Both forks must commit bit-identical
// results — to each other AND to a cold run — proving Restore rewinds the
// parked buffer (not just kernels and savers) and keeps the checkpoint
// pristine across restores.
func TestForkAfterSegmentedRun(t *testing.T) {
	const (
		tors = 4
		lps  = 4
		seed = 13
		warm = 1 * des.Millisecond
		dur  = 3 * des.Millisecond
	)
	cfg := topology.DefaultLeafSpineConfig(tors)
	specs := forkSpecs(t, cfg, 0.9, dur, seed)
	sched, err := topology.ParseFaults(cfg, "link:tor0-spine0@1600us+400us,detect=30us,jitter=10us")
	if err != nil {
		t.Fatal(err)
	}

	coldNet, err := Build(cfg, 1, specs, WithFaults(sched))
	if err != nil {
		t.Fatal(err)
	}
	if err := coldNet.Sys.Run(dur); err != nil {
		t.Fatal(err)
	}

	base, err := Build(cfg, lps, specs)
	if err != nil {
		t.Fatal(err)
	}
	// Segmented warm-up: the second segment starts by resuming the packets
	// parked at the first cut.
	if err := base.Sys.Run(warm / 2); err != nil {
		t.Fatal(err)
	}
	if err := base.Sys.Run(warm); err != nil {
		t.Fatal(err)
	}
	ckpt, err := base.Sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	var first []tcp.FlowResult
	for round := 0; round < 2; round++ {
		if err := base.Sys.Restore(ckpt); err != nil {
			t.Fatal(err)
		}
		if err := base.SetFaults(sched); err != nil {
			t.Fatal(err)
		}
		if err := base.Sys.Run(dur); err != nil {
			t.Fatal(err)
		}
		mustEqualFlows(t, "segmented warm fork vs cold", coldNet.Results(), base.Results())
		if round == 0 {
			first = sortedFlows(base.Results())
		} else {
			mustEqualFlows(t, "fork 2 vs fork 1", first, base.Results())
		}
	}
}

// TestCheckpointRejectsTimeWarp: the optimistic engine owns its own snapshot
// machinery; the system-level fork is conservative-only.
func TestCheckpointRejectsTimeWarp(t *testing.T) {
	s := NewSystem(2, WithSyncAlgo(TimeWarp))
	if _, err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint under Time Warp should fail")
	}
	c := NewSystem(2)
	st, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(st); err == nil {
		t.Fatal("Restore under Time Warp should fail")
	}
	if err := c.Restore(&SystemState{}); err == nil {
		t.Fatal("Restore with mismatched LP count should fail")
	}
}

// activeChannels counts the directed LP-pair channels that are not
// quiescent, and all of them.
func activeChannels(s *System) (active, all int) {
	for _, lp := range s.lps {
		for _, o := range lp.outs {
			all++
			if !o.quiescent {
				active++
			}
		}
	}
	return active, all
}

// TestSetFaultsTogglesQuiescence forks one healthy multi-LP baseline whose
// channel analysis leaves some channels quiescent, alternating the healthy
// schedule and a faulted one. Quiescence must follow the schedule — the
// healthy active set, then every channel — and each variant must commit its
// cold build's flows with no quiescent send and no causality violation.
func TestSetFaultsTogglesQuiescence(t *testing.T) {
	const (
		lps  = 4
		seed = 2
		dur  = 2 * des.Millisecond
	)
	cfg := topology.DefaultLeafSpineConfig(8)
	specs := forkSpecs(t, cfg, 0.02, dur, seed)
	sched, err := topology.ParseFaults(cfg, "switch:spine1@200us+1ms,detect=50us")
	if err != nil {
		t.Fatal(err)
	}
	variants := []*faults.Schedule{nil, sched}
	colds := make([]*Network, len(variants))
	for i, v := range variants {
		net, err := Build(cfg, lps, specs, WithFaults(v))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Sys.Run(dur); err != nil {
			t.Fatal(err)
		}
		colds[i] = net
	}
	if reflect.DeepEqual(sortedFlows(colds[0].Results()), sortedFlows(colds[1].Results())) {
		t.Fatal("the fault changed no flow; the faulted variant proves nothing")
	}

	base, err := Build(cfg, lps, specs)
	if err != nil {
		t.Fatal(err)
	}
	healthy, all := activeChannels(base.Sys)
	if healthy == 0 || healthy == all {
		t.Fatalf("healthy analysis left %d of %d channels active, want some but not all", healthy, all)
	}
	ckpt, err := base.Sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, v := range variants {
			if err := base.Sys.Restore(ckpt); err != nil {
				t.Fatal(err)
			}
			if err := base.SetFaults(v); err != nil {
				t.Fatal(err)
			}
			want := healthy
			if i > 0 {
				want = all
			}
			if got, _ := activeChannels(base.Sys); got != want {
				t.Fatalf("round %d variant %d: %d active channels, want %d", round, i, got, want)
			}
			pre := base.Sys.Stats()
			if err := base.Sys.Run(dur); err != nil {
				t.Fatal(err)
			}
			delta := base.Sys.Stats().Sub(pre)
			if delta[QuiescentSends] != 0 || delta[Violations] != 0 {
				t.Fatalf("round %d variant %d: %d quiescent sends, %d causality violations",
					round, i, delta[QuiescentSends], delta[Violations])
			}
			mustEqualFlows(t, fmt.Sprintf("round %d variant %d", round, i), colds[i].Results(), base.Results())
		}
	}
}
