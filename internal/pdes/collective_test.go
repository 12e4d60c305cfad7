package pdes

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
)

// Closed-loop collective workloads (internal/collective) ride the same
// determinism contract as everything else in the engine: every flow launch is
// triggered by a committed virtual-time event (a FIN arriving, a send
// completing), never by wall clock, so the committed collective progress
// counters must be bit-identical across sync algorithms and LP
// counts. These tests prove that, plus the analytic iteration-time bounds that
// make the results physically meaningful.

// committedGroupsCollective extends committedGroups with the collective
// metric group (per-rank launch/step/iteration counters and the iteration
// latency histogram), which must also agree across engines.
func committedGroupsCollective(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var groups map[string]json.RawMessage
	if err := json.Unmarshal(raw, &groups); err != nil {
		t.Fatal(err)
	}
	if len(groups["collective"]) == 0 {
		t.Fatal("snapshot is missing the collective group")
	}
	return committedGroups(t, reg) + fmt.Sprintf(" collective=%s", groups["collective"])
}

// runCollectiveOnly runs a leaf-spine simulation whose ONLY workload is the
// given collectives (no Poisson background) and returns the finished network.
func runCollectiveOnly(t *testing.T, tors, lps int, dur des.Time, algo SyncAlgo,
	reg *metrics.Registry, ps ...collective.Params) *Network {
	t.Helper()
	net, err := Build(topology.DefaultLeafSpineConfig(tors), lps, nil, WithSyncAlgo(algo), WithCollectives(ps...))
	if err != nil {
		t.Fatalf("collective build (%v, lps=%d): %v", algo, lps, err)
	}
	if reg != nil {
		net.RegisterMetrics(reg)
	}
	if err := net.Sys.Run(dur); err != nil {
		t.Fatalf("collective run (%v, lps=%d): %v", algo, lps, err)
	}
	return net
}

// TestCollectiveRingCompletes is the basic liveness check: a 4-rank ring
// all-reduce finishes every iteration, launches exactly 2(N-1)*N flows per
// iteration, and every launched flow completes.
func TestCollectiveRingCompletes(t *testing.T) {
	p := collective.Params{Kind: collective.Ring, SizeBytes: 64 << 10, Iters: 2, Hosts: 4}
	net := runCollectiveOnly(t, 2, 1, 20*des.Millisecond, NullMessages, nil, p)
	in := net.Collectives[0]
	if got := in.CompletedIters(); got != 2 {
		t.Fatalf("completed iterations = %d, want 2", got)
	}
	wantFlows := 2 * 2 * (4 - 1) * 4 // iters * 2(N-1) steps * N ranks
	if got := net.FlowsStarted(); got != wantFlows {
		t.Errorf("flows started = %d, want %d", got, wantFlows)
	}
	if got := completed(net); got != wantFlows {
		t.Errorf("flows completed = %d, want %d", got, wantFlows)
	}
	durs := in.IterDurations()
	if len(durs) != 2 {
		t.Fatalf("iteration durations = %v, want 2 entries", durs)
	}
	for i, d := range durs {
		if d <= 0 {
			t.Errorf("iteration %d duration = %dns, want positive", i, d)
		}
	}
}

// TestCollectiveTreeAndAllToAllComplete covers the other two kinds' flow
// accounting: tree reduce-broadcast launches 2(N-1) flows per iteration,
// all-to-all N(N-1).
func TestCollectiveTreeAndAllToAllComplete(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		kind collective.Kind
		want int
	}{
		{collective.Tree, 2 * (n - 1)},
		{collective.AllToAll, n * (n - 1)},
	} {
		p := collective.Params{Kind: tc.kind, SizeBytes: 32 << 10, Iters: 3, Hosts: n}
		net := runCollectiveOnly(t, 2, 1, 50*des.Millisecond, NullMessages, nil, p)
		if got := net.Collectives[0].CompletedIters(); got != 3 {
			t.Fatalf("%v: completed iterations = %d, want 3", tc.kind, got)
		}
		if want := 3 * tc.want; net.FlowsStarted() != want || completed(net) != want {
			t.Errorf("%v: flows started/completed = %d/%d, want %d",
				tc.kind, net.FlowsStarted(), completed(net), want)
		}
	}
}

// TestCollectiveRingAnalyticBound checks the measured ring all-reduce
// iteration time against the standard cost model on an uncongested fabric.
// With N ranks and payload S on hosts with line rate B, the ring runs 2(N-1)
// serial steps each moving a ceil(S/N) chunk, so an iteration can never beat
//
//	T_ring = 2(N-1)/N * S*8/B
//
// (the α term — per-step handshake and propagation — only adds). The upper
// tolerance absorbs what the bound ignores: every chunk rides a FRESH TCP
// connection, so each of the 14 steps pays a handshake plus a full slow-start
// ramp, which at 128KB chunks roughly doubles the transfer relative to line
// rate (measured ratio ~2.0-2.1, bit-stable run to run). 2.5x keeps headroom
// for congestion-control tuning while still pinning the ORDER: the simulated
// collective tracks the analytic model, not some artifact of the event
// engine.
func TestCollectiveRingAnalyticBound(t *testing.T) {
	const (
		n     = 8
		size  = int64(1 << 20) // 1MB payload
		iters = 2
	)
	cfg := topology.DefaultLeafSpineConfig(4) // 16 hosts, first 8 are ranks
	p := collective.Params{Kind: collective.Ring, SizeBytes: size, Iters: iters, Hosts: n}
	in := runCollectiveOnly(t, 4, 1, 100*des.Millisecond, NullMessages, nil, p).Collectives[0]
	if got := in.CompletedIters(); got != iters {
		t.Fatalf("completed iterations = %d, want %d", got, iters)
	}
	chunk := (size + n - 1) / n
	steps := 2 * (n - 1)
	bound := float64(steps) * float64(chunk*8) / float64(cfg.HostLink.BandwidthBps)
	for i, d := range in.IterDurations() {
		got := d.Seconds()
		if got < bound {
			t.Errorf("iteration %d took %.0fus, beats the analytic lower bound %.0fus",
				i, got*1e6, bound*1e6)
		}
		if got > 2.5*bound {
			t.Errorf("iteration %d took %.0fus, more than 2.5x the analytic bound %.0fus",
				i, got*1e6, bound*1e6)
		}
	}
	t.Logf("ring N=%d S=%dKB: bound %.0fus, measured %v", n, size>>10, bound*1e6, in.IterDurations())
}

// TestCollectiveTreeBeatsRingSmallPayload checks the crossover the two
// algorithms exist for: at small payloads the per-step latency term
// dominates, and the tree's 2*depth serial rounds beat the ring's 2(N-1)
// steps. (At large payloads the inequality flips — the ring moves 1/N-size
// chunks — which the analytic-bound test above pins from the other side.)
func TestCollectiveTreeBeatsRingSmallPayload(t *testing.T) {
	const n = 8
	run := func(kind collective.Kind) float64 {
		p := collective.Params{Kind: kind, SizeBytes: 8 << 10, Iters: 3, Hosts: n}
		in := runCollectiveOnly(t, 4, 1, 50*des.Millisecond, NullMessages, nil, p).Collectives[0]
		if got := in.CompletedIters(); got != 3 {
			t.Fatalf("%v: completed iterations = %d, want 3", kind, got)
		}
		var sum float64
		durs := in.IterDurations()
		for _, d := range durs {
			sum += d.Seconds()
		}
		return sum / float64(len(durs))
	}
	ring, tree := run(collective.Ring), run(collective.Tree)
	if tree >= ring {
		t.Errorf("8KB all-reduce: tree %.1fus should beat ring %.1fus", tree*1e6, ring*1e6)
	}
	t.Logf("8KB all-reduce over %d ranks: ring %.1fus, tree %.1fus", n, ring*1e6, tree*1e6)
}

// TestDeterminismPropertyCollective extends the determinism property to the
// closed-loop workload engine: a ring all-reduce over half the hosts, layered
// on light Poisson background traffic, must commit bit-identical netsim, tcp,
// AND collective metric groups across the sync-algo x LP-count matrix
// versus the sequential single-LP reference. Collective launches
// happen inside TCP completion callbacks, so this is the test that would
// catch a wall-clock dependency, a cross-LP direct call, or a rank state that
// Time Warp fails to checkpoint and re-derive after rollback.
func TestDeterminismPropertyCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is heavy; skipped under -short")
	}
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			r := rng.NewLabeled(seed, "determinism-collective")
			tors := 2 + 2*r.Intn(2)            // 2 or 4 ToRs
			load := 0.1 + 0.2*r.Float64()      // light background, 0.1 .. 0.3
			dur := 3 * des.Millisecond         // enough for a 64-256KB ring iteration
			ranks := 4 + 2*r.Intn(2)           // 4 or 6 ranks (first hosts, spans ToRs)
			size := int64(64<<10) << r.Intn(2) // 64KB or 128KB
			lpsHigh := tors
			coll := collective.Params{Kind: collective.Ring, SizeBytes: size, Iters: 2, Hosts: ranks}

			// run returns the committed groups and the whole iterations the
			// collective completed.
			run := func(algo SyncAlgo, lps int, opts ...Option) (string, int) {
				reg := metrics.NewRegistry()
				net, err := runNetwork(topology.DefaultLeafSpineConfig(tors), lps, load, dur, seed, algo, reg, nil,
					append([]Option{WithCollectives(coll)}, opts...)...)
				if err != nil {
					t.Fatalf("%v lps=%d: %v", algo, lps, err)
				}
				if v := net.Sys.Stats()[Violations]; v != 0 {
					t.Fatalf("%v lps=%d: %d causality violations", algo, lps, v)
				}
				return committedGroupsCollective(t, reg), net.Collectives[0].CompletedIters()
			}

			ref, refIters := run(NullMessages, 1)
			if refIters == 0 {
				t.Fatalf("reference run completed no collective iterations (size=%dKB ranks=%d)",
					size>>10, ranks)
			}

			check := func(name string, got string, iters int) {
				if got != ref {
					t.Errorf("%s committed snapshot diverged from the sequential reference:\nref: %s\ngot: %s",
						name, ref, got)
				}
				if iters != refIters {
					t.Errorf("%s completed %d collective iterations, reference completed %d",
						name, iters, refIters)
				}
			}

			got, iters := run(NullMessages, lpsHigh)
			check(fmt.Sprintf("nullmsg(lps=%d)", lpsHigh), got, iters)
			got, iters = run(Barrier, lpsHigh)
			check(fmt.Sprintf("barrier(lps=%d)", lpsHigh), got, iters)
			got, iters = run(Barrier, 2)
			check("barrier(lps=2)", got, iters)
			got, iters = run(TimeWarp, 2, withGVTInterval(50*time.Microsecond))
			check("timewarp(lps=2)", got, iters)
		})
	}
}

// TestCollectiveClosDeterminism runs the same closed-loop contract on the
// three-tier Clos: ring all-reduce plus background traffic, parallel
// conservative runs vs the sequential reference.
func TestCollectiveClosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy; skipped under -short")
	}
	coll := collective.Params{Kind: collective.Ring, SizeBytes: 64 << 10, Iters: 1, Hosts: 6}
	run := func(algo SyncAlgo, lps int) (string, int) {
		reg := metrics.NewRegistry()
		net, err := runNetwork(topology.DefaultClosConfig(4), lps, 0.2, 2*des.Millisecond, 7, algo, reg, nil,
			WithCollectives(coll))
		if err != nil {
			t.Fatalf("%v lps=%d: %v", algo, lps, err)
		}
		return committedGroupsCollective(t, reg), net.Collectives[0].CompletedIters()
	}
	ref, refIters := run(NullMessages, 1)
	if refIters != 1 {
		t.Fatalf("reference completed %d collective iterations, want 1", refIters)
	}
	for _, algo := range []SyncAlgo{NullMessages, Barrier} {
		for _, lps := range []int{2, 4} {
			got, iters := run(algo, lps)
			if got != ref {
				t.Errorf("%v lps=%d diverged from sequential reference:\nref: %s\ngot: %s",
					algo, lps, ref, got)
			}
			if iters != refIters {
				t.Errorf("%v lps=%d completed %d iterations, want %d",
					algo, lps, iters, refIters)
			}
		}
	}
}
