package pdes

import (
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/topology"
)

// Pool-abuse smoke test across all three synchronization algorithms. In a
// release build this is a plain equivalence check; built with
// `-tags pooldebug -race` it is the hostile version — every recycled event is
// poisoned, so any engine that schedules through a stale handle, resurrects a
// pooled object into a heap, or snapshots a recycled event panics on the spot
// instead of silently corrupting the run. CI runs it both ways.
func TestAllAlgosPoolDebug(t *testing.T) {
	t.Logf("des.PoolDebug=%v", des.PoolDebug)
	const (
		tors = 4
		lps  = 2
		load = 0.65
		seed = 7
	)
	dur := des.Millisecond

	run := func(algo SyncAlgo, opts ...Option) string {
		reg := metrics.NewRegistry()
		res, err := runNetwork(topology.DefaultLeafSpineConfig(tors), lps, load, dur, seed, algo, reg, nil, opts...)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Violations != 0 {
			t.Fatalf("%v: %d causality violations", algo, res.Violations)
		}
		return committedGroups(t, reg)
	}

	ref := run(NullMessages)
	if got := run(Barrier); got != ref {
		t.Errorf("barrier diverged from nullmsg:\nref: %s\ngot: %s", ref, got)
	}
	// Lazy cancellation plus a short GVT interval provokes real rollbacks, so
	// the poisoned build exercises checkpoint pinning, re-ingestion, and the
	// lazy-queue reclaim path — the places stale handles would hide.
	if got := run(TimeWarp, WithGVTInterval(50*time.Microsecond)); got != ref {
		t.Errorf("timewarp diverged from nullmsg:\nref: %s\ngot: %s", ref, got)
	}
}

// TestLazyDelayedAntiFallback pins down the bisect switch twDisableLazyMatch:
// with reclaim matching disabled, rolled-back output flows through the lazy
// queue and is flushed entirely as anti-messages — aggressive cancellation
// with delayed delivery. The committed results must still match the
// conservative reference, and nothing may count as reclaimed.
func TestLazyDelayedAntiFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("delayed-anti runs are slow; skipped under -short")
	}
	const (
		tors = 4
		lps  = 2
		load = 0.65
		seed = 7
	)
	dur := des.Millisecond

	refReg := metrics.NewRegistry()
	cfg := topology.DefaultLeafSpineConfig(tors)
	if _, err := runNetwork(cfg, lps, load, dur, seed, NullMessages, refReg, nil); err != nil {
		t.Fatal(err)
	}
	ref := committedGroups(t, refReg)

	twDisableLazyMatch = true
	defer func() { twDisableLazyMatch = false }()
	reg := metrics.NewRegistry()
	res, err := runNetwork(cfg, lps, load, dur, seed, TimeWarp, reg, nil, WithGVTInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if res.LazyCancelSaved != 0 {
		t.Errorf("reclaim disabled but LazyCancelSaved = %d", res.LazyCancelSaved)
	}
	if res.Rollbacks > 0 && res.AntiMessages == 0 {
		t.Errorf("rollbacks happened (%d) but no anti-messages were flushed", res.Rollbacks)
	}
	if got := committedGroups(t, reg); got != ref {
		t.Errorf("delayed-anti timewarp diverged from nullmsg:\nref: %s\ngot: %s", ref, got)
	}
}
