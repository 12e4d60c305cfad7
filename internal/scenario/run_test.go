package scenario

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/nn"
	"approxsim/internal/obs"
	"approxsim/internal/pdes"
	"approxsim/internal/traffic"
)

// mustMetricsJSON canonicalizes a Metrics block for bit-level comparison —
// the same bytes the server would cache.
func mustMetricsJSON(t *testing.T, m Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPooledForkMatchesCold is the tentpole's end-to-end determinism check at
// the scenario layer: variants of one fault-sweep family run through the Pool
// (sharing a forked baseline) must produce Metrics bit-identical to cold
// starts of the same specs, and the pool must report the reuse.
func TestPooledForkMatchesCold(t *testing.T) {
	family := Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 4},
		Workload:  Workload{Load: 0.3},
		LPs:       2,
		Seed:      7,
		HorizonMS: 2,
	}
	variants := []string{
		"",
		"switch:spine0@500us+600us,detect=50us,jitter=10us",
		"link:tor0-spine1@400us+800us,detect=40us",
	}
	pool := NewPool(4)
	for i, faults := range variants {
		sp := family
		sp.Faults = faults
		cold, err := Run(sp)
		if err != nil {
			t.Fatalf("variant %d cold: %v", i, err)
		}
		pooled, err := Run(sp, WithPool(pool))
		if err != nil {
			t.Fatalf("variant %d pooled: %v", i, err)
		}
		if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
			t.Fatalf("variant %d: pooled metrics diverge from cold start:\n pooled %s\n cold   %s", i, got, want)
		}
		if wantFork := i > 0; pooled.Perf.ForkReused != wantFork {
			t.Fatalf("variant %d: ForkReused = %v, want %v", i, pooled.Perf.ForkReused, wantFork)
		}
		if cold.Perf.ForkReused {
			t.Fatalf("variant %d: cold run claims a fork", i)
		}
	}
	st := pool.Stats()
	if st.Builds != 1 || st.Reuses != uint64(len(variants)-1) || st.Baselines != 1 {
		t.Fatalf("pool stats = %+v, want 1 build, %d reuses, 1 baseline", st, len(variants)-1)
	}
}

// TestPooledWarmPointMatchesCold covers the warm-fork path end to end: the
// baseline simulates healthily to warm_ms once; both variants fork it there.
func TestPooledWarmPointMatchesCold(t *testing.T) {
	family := Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 4},
		Workload:  Workload{Load: 0.3},
		LPs:       1,
		Seed:      11,
		HorizonMS: 3,
		WarmMS:    1,
	}
	pool := NewPool(4)
	for i, faults := range []string{
		"switch:spine1@1500us+500us,detect=40us",
		"switch:spine0@1200us+300us,detect=60us",
	} {
		sp := family
		sp.Faults = faults
		cold, err := Run(sp)
		if err != nil {
			t.Fatalf("variant %d cold: %v", i, err)
		}
		pooled, err := Run(sp, WithPool(pool))
		if err != nil {
			t.Fatalf("variant %d pooled: %v", i, err)
		}
		if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
			t.Fatalf("variant %d: warm fork diverges from cold start:\n pooled %s\n cold   %s", i, got, want)
		}
	}
	if st := pool.Stats(); st.Reuses != 1 {
		t.Fatalf("pool stats = %+v, want exactly 1 reuse", st)
	}
}

// TestPooledWarmMultiLPMatchesCold is the bugfix's end-to-end check: a
// multi-LP warm baseline parks whatever cross-LP traffic is in flight at the
// warm point, every fault variant forks it there, and each fork's Metrics are
// bit-identical to a cold start of the same spec. Before the parked buffer
// existed this spec shape was rejected by Validate (and would have dropped
// packets at the warm horizon if it hadn't been).
func TestPooledWarmMultiLPMatchesCold(t *testing.T) {
	for _, sync := range []string{"nullmsg", "barrier"} {
		t.Run(sync, func(t *testing.T) {
			family := Spec{
				Mode:      "pdes",
				Topology:  Topology{Racks: 8},
				Workload:  Workload{Load: 0.9},
				Sync:      sync,
				LPs:       4,
				Seed:      17,
				HorizonMS: 3,
				WarmMS:    1,
			}
			pool := NewPool(4)
			for i, faults := range []string{
				"switch:spine1@1500us+500us,detect=40us",
				"link:tor0-spine0@1200us+600us,detect=60us,jitter=10us",
			} {
				sp := family
				sp.Faults = faults
				cold, err := Run(sp)
				if err != nil {
					t.Fatalf("variant %d cold: %v", i, err)
				}
				pooled, err := Run(sp, WithPool(pool))
				if err != nil {
					t.Fatalf("variant %d pooled: %v", i, err)
				}
				if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
					t.Fatalf("variant %d: multi-LP warm fork diverges from cold start:\n pooled %s\n cold   %s", i, got, want)
				}
				if wantFork := i > 0; pooled.Perf.ForkReused != wantFork {
					t.Fatalf("variant %d: ForkReused = %v, want %v", i, pooled.Perf.ForkReused, wantFork)
				}
				if pooled.Metrics.Completed == 0 {
					t.Fatalf("variant %d: degenerate run: %+v", i, pooled.Metrics)
				}
			}
			if st := pool.Stats(); st.Builds != 1 || st.Reuses != 1 {
				t.Fatalf("pool stats = %+v, want 1 build and 1 reuse", st)
			}
		})
	}
}

// TestRunDeterminism: identical specs produce bit-identical Metrics on
// repeated cold runs, for every engine mode that needs no trained models.
func TestRunDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"full":  {Mode: "full", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5},
		"fluid": {Mode: "fluid", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5},
		"pdes":  {Mode: "pdes", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5, LPs: 2},
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			a, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if ja, jb := mustMetricsJSON(t, a.Metrics), mustMetricsJSON(t, b.Metrics); ja != jb {
				t.Fatalf("two runs of one spec diverge:\n %s\n %s", ja, jb)
			}
			if a.Key != b.Key || a.Key == "" {
				t.Fatalf("keys: %q vs %q", a.Key, b.Key)
			}
			if a.Metrics.Flows == 0 || a.Metrics.Completed == 0 {
				t.Fatalf("degenerate run: %+v", a.Metrics)
			}
		})
	}
}

// TestFullModeWritesIntervalSeries: a full-mode run configured for interval
// metrics streams at least one JSONL row per interval of the horizon, the
// same as every other single-kernel mode.
func TestFullModeWritesIntervalSeries(t *testing.T) {
	const interval = 500 * des.Microsecond
	sp := Spec{Mode: "full", Workload: Workload{Load: 0.3}, Seed: 5, HorizonMS: 2}
	var buf bytes.Buffer
	reg := metrics.NewRegistry()
	_, err := Run(sp, WithRegistry(reg), WithPDESOptions(pdes.WithSampler(obs.NewSampler(reg, &buf, interval))))
	if err != nil {
		t.Fatal(err)
	}
	rows := bytes.Count(buf.Bytes(), []byte("\n"))
	if want := int(des.Time(sp.HorizonMS*float64(des.Millisecond)) / interval); rows < want {
		t.Fatalf("%d JSONL rows written, want at least %d", rows, want)
	}
}

// TestRunRejectsInvalid: Run refuses a spec Validate refuses.
func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Spec{Mode: "pdes", Sync: "lockstep"}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
	if _, err := Run(Spec{Mode: "hybrid"}); err == nil {
		t.Fatal("hybrid without models must fail")
	}
}

// TestPoolEviction: the retention cap holds and evicted families rebuild.
func TestPoolEviction(t *testing.T) {
	pool := NewPool(1)
	a := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 1, Seed: 1, HorizonMS: 1}
	b := a
	b.Seed = 2
	for _, sp := range []Spec{a, b, a} { // a evicted by b, then rebuilt
		if _, err := Run(sp, WithPool(pool)); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Baselines != 1 {
		t.Fatalf("retained %d baselines with max 1", st.Baselines)
	}
	if st.Builds != 3 || st.Reuses != 0 {
		t.Fatalf("stats %+v, want 3 builds 0 reuses", st)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestPoolLRUPromotion: re-touching a family protects it from eviction — the
// least-recently-USED baseline goes, not the oldest-built.
func TestPoolLRUPromotion(t *testing.T) {
	pool := NewPool(2)
	mk := func(seed uint64) Spec {
		return Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3},
			LPs: 1, Seed: seed, HorizonMS: 1}
	}
	// Build A, build B, touch A (fork reuse), then build C: under LRU the
	// victim is B, so re-running A must still fork-reuse its baseline.
	for _, sp := range []Spec{mk(1), mk(2), mk(1), mk(3), mk(1)} {
		if _, err := Run(sp, WithPool(pool)); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Builds != 3 || st.Reuses != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 3 builds / 2 reuses of A / 1 eviction (of B)", st)
	}
}

// TestRunPublishesProgress: a run handed a Progress must finish it with the
// final committed time and event count, for every engine mode.
func TestRunPublishesProgress(t *testing.T) {
	for name, sp := range map[string]Spec{
		"pdes":   {Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 2, Seed: 5, HorizonMS: 1},
		"full":   {Mode: "full", Workload: Workload{Load: 0.3}, Seed: 5, HorizonMS: 1},
		"pooled": {Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 1, Seed: 6, HorizonMS: 1},
	} {
		t.Run(name, func(t *testing.T) {
			prog := &obs.Progress{}
			opts := []RunOption{WithProgress(prog)}
			if name == "pooled" {
				opts = append(opts, WithPool(NewPool(2)))
			}
			res, err := Run(sp, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if prog.Events() != res.Perf.Events || prog.Events() == 0 {
				t.Fatalf("progress events %d, perf events %d", prog.Events(), res.Perf.Events)
			}
			if end := des.Time(res.Perf.SimSeconds * float64(des.Second)); prog.Committed() != end {
				t.Fatalf("final committed %v, want the run's end %v", prog.Committed(), end)
			}
		})
	}
}

// TestPoolForkProgressIsolation runs two fault variants of one warm family
// through one Pool, the second queued on the shared System while the first
// runs, and keeps polling the first run's Progress until both are done. The
// first Progress must never read the second fork's live system: its event
// count never falls (the second fork's Restore rewinds the shared counters),
// and it settles on the first run's own final reading. The first variant
// enters through Pool.run, the level that releases the baseline's lock, so
// this fails if its Progress is frozen only after that release.
func TestPoolForkProgressIsolation(t *testing.T) {
	family := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.5},
		LPs: 2, Seed: 19, HorizonMS: 2, WarmMS: 1}
	first, second := family, family
	first.Faults = "switch:spine0@1200us+300us,detect=50us"
	second.Faults = "link:tor0-spine0@1100us+500us,detect=60us"
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(1)
	var prog obs.Progress
	res := &Result{Spec: first.Normalized()}
	var firstErr, secondErr error
	var secondRes *Result
	var wg sync.WaitGroup
	wg.Add(2)
	firstDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(firstDone)
		firstErr = pool.run(res.Spec, res, &prog)
	}()
	go func() {
		defer wg.Done()
		// Queue behind the first run once it holds the shared System.
	wait:
		for prog.Committed() == 0 {
			select {
			case <-firstDone:
				break wait
			default:
				runtime.Gosched()
			}
		}
		secondRes, secondErr = Run(second, WithPool(pool))
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var seen uint64
	for polling := true; polling; runtime.Gosched() {
		select {
		case <-done:
			polling = false
		default:
		}
		n := prog.Events()
		if n < seen {
			t.Fatalf("first run's events fell from %d to %d: it read the second fork", seen, n)
		}
		seen = n
	}
	if firstErr != nil || secondErr != nil {
		t.Fatal(firstErr, secondErr)
	}
	if res.Perf.Events == secondRes.Perf.Events {
		t.Fatalf("both variants ran %d events; the check cannot tell them apart", res.Perf.Events)
	}
	if end := des.Time(res.Perf.SimSeconds * float64(des.Second)); prog.Committed() != end || prog.Events() != res.Perf.Events {
		t.Errorf("first run's Progress reads %v/%d after the second fork, want its own final %v/%d",
			prog.Committed(), prog.Events(), end, res.Perf.Events)
	}
	if st := pool.Stats(); st.Builds != 1 || st.Reuses != 1 {
		t.Fatalf("pool stats %+v, want one warm baseline both variants forked", st)
	}
}

// TestRunProgressStartsNoGoroutine: a multi-LP run handed a Progress starts
// one goroutine per LP and nothing else — the Progress reads the live system
// on its reader's goroutine — and leaves none behind. A watcher samples the
// goroutine count while every LP is provably running: committed time (the
// minimum LP clock) has left 0 and not yet reached the end.
func TestRunProgressStartsNoGoroutine(t *testing.T) {
	sp := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.5}, LPs: 2, Seed: 9, HorizonMS: 3}
	end := des.Time((sp.Normalized().HorizonMS + sp.Normalized().DrainMS) * float64(des.Millisecond))
	var prog obs.Progress
	// Goroutines of earlier tests may still be on their way out.
	base := runtime.NumGoroutine()
	for held := 0; held < 20; held++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != base {
			base, held = n, 0
		}
	}
	quit, counts := make(chan struct{}), make(chan []int)
	go func() {
		var seen []int
		for {
			select {
			case <-quit:
				counts <- seen
				return
			default:
			}
			c0 := prog.Committed()
			n := runtime.NumGoroutine()
			if c0 > 0 && prog.Committed() < end {
				seen = append(seen, n)
			}
			runtime.Gosched()
		}
	}()
	_, err := Run(sp, WithProgress(&prog))
	close(quit)
	seen := <-counts
	if err != nil {
		t.Fatal(err)
	}
	if prog.Committed() != end {
		t.Fatalf("run ended at %v, want %v", prog.Committed(), end)
	}
	if len(seen) == 0 {
		t.Fatal("no goroutine count sampled mid-run")
	}
	// The minimum: a runtime goroutine running finalizers counts while it
	// runs, so single samples may read high; a goroutine Run started would
	// raise every one.
	if n, want := slices.Min(seen), base+1+sp.LPs; n != want {
		t.Fatalf("%d goroutines mid-run, want %d (the %d before Run, the watcher and %d LPs)", n, want, base, sp.LPs)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want the %d before it (leak)", runtime.NumGoroutine(), base)
		}
	}
}

// TestPoolIneligibleFallsCold: timewarp and registry/option-carrying runs
// bypass the pool rather than corrupting a shared baseline.
func TestPoolIneligibleFallsCold(t *testing.T) {
	pool := NewPool(2)
	sp := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3},
		LPs: 2, Seed: 3, HorizonMS: 1, Sync: "timewarp"}
	res, err := Run(sp, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.ForkReused {
		t.Fatal("timewarp run claims a fork")
	}
	if st := pool.Stats(); st.Builds != 0 {
		t.Fatalf("timewarp run touched the pool: %+v", st)
	}
}

// TestReduceMatchesNetwork pins the one reduction from a finished network to
// a result: Metrics carry the flow summary of the network's own results
// exactly (traffic.Summarize over the run's end), the flows started and the
// collective iterations; total_bytes and RTTs only in the clos modes; Perf
// carries the run's counters and its sim-per-wall rate.
func TestReduceMatchesNetwork(t *testing.T) {
	for _, sp := range []Spec{
		{Mode: "full", Workload: Workload{Load: 0.3}, Seed: 4, HorizonMS: 2},
		{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.2, Collective: "ring:hosts=4,size=64KB,iters=2"},
			LPs: 2, Seed: 4, HorizonMS: 3},
	} {
		t.Run(sp.Mode, func(t *testing.T) {
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
			sp = sp.Normalized()
			net, err := sp.build()
			if err != nil {
				t.Fatal(err)
			}
			var pipe *core.Pipeline
			if sp.Mode != "pdes" {
				topo, err := net.Topology()
				if err != nil {
					t.Fatal(err)
				}
				if pipe, err = core.Attach(sp.coreConfig(), topo, net.Stacks, sp.boundary(), nil); err != nil {
					t.Fatal(err)
				}
			}
			res := &Result{}
			if err := sp.runNetwork(net, pipe, res, nil, false); err != nil {
				t.Fatal(err)
			}
			m, want := res.Metrics, traffic.Summarize(net.Results(), sp.end())
			if want.Completed == 0 {
				t.Fatal("the workload completed nothing; the comparison below would prove nothing")
			}
			if m.Flows != net.FlowsStarted() || m.Completed != want.Completed || m.MeanFCTSec != want.MeanFCT ||
				m.P99FCTSec != want.P99FCT || m.Retrans != want.Retrans || m.Timeouts != want.Timeouts ||
				m.GoodputBps != want.GoodputBps {
				t.Errorf("metrics %+v do not carry the network's summary %+v (%d flows started)", m, want, net.FlowsStarted())
			}
			if m.FaultDrops != net.FaultDrops() || m.RouteDrops != net.RouteDrops() {
				t.Errorf("drops %d/%d, network counts %d/%d", m.FaultDrops, m.RouteDrops, net.FaultDrops(), net.RouteDrops())
			}
			if clos := sp.Mode != "pdes"; clos != (m.TotalBytes == want.TotalBytes) || clos != (m.RTTSamples > 0) {
				t.Errorf("total_bytes %d (summary %d), %d RTT samples: want both only in the clos modes",
					m.TotalBytes, want.TotalBytes, m.RTTSamples)
			}
			if sp.Workload.Collective != "" {
				in := net.Collectives[0]
				if m.CollectiveIters != in.CompletedIters() || m.CollectiveIters == 0 || len(m.CollectiveIterNS) != len(in.IterDurations()) {
					t.Errorf("collective iters %d over %v, network completed %d over %v",
						m.CollectiveIters, m.CollectiveIterNS, in.CompletedIters(), in.IterDurations())
				}
				var sum float64
				for _, d := range in.IterDurations() {
					sum += d.Seconds()
				}
				if mean := sum / float64(len(m.CollectiveIterNS)); m.CollectiveMeanIterSec != mean ||
					m.CollectiveMeanIterSec <= 0 || m.CollectiveMaxIterSec < m.CollectiveMeanIterSec {
					t.Errorf("collective mean/max %v/%v, want mean %v and max at least the mean",
						m.CollectiveMeanIterSec, m.CollectiveMaxIterSec, mean)
				}
			}
			p, st := res.Perf, net.Sys.Stats()
			if res.Stats != st || p.Events != st[pdes.Events] || p.Nulls != st[pdes.Nulls] ||
				p.CrossPkts != st[pdes.CrossPkts] || p.ParkedArrivals != st[pdes.ParkedArrivals] {
				t.Errorf("perf %+v / stats %v, network counts %v", p, res.Stats, st)
			}
			if res.Partition != net.Partition {
				t.Error("result does not carry the network's partition")
			}
			if p.SimSeconds != sp.end().Seconds() || p.SimPerWall <= 0 || p.SimPerWall != p.SimSeconds/p.WallSeconds {
				t.Errorf("sim %vs over wall %vs at %v sim-s per wall-s", p.SimSeconds, p.WallSeconds, p.SimPerWall)
			}
		})
	}
}

// TestSnapshotConcurrentWithOneLPRun hammers Registry.Snapshot and Progress
// while scenario.Run runs a full Clos spec and a hybrid spec, each on one LP
// and so on the caller's goroutine. The registry collects through the run's
// gate, which pauses that goroutine at a kernel safepoint; under -race any
// read that bypasses it fails. Committed time never runs backwards and the
// final readings are exact. A short run can end before the hammer catches it
// in progress, so each spec runs until a snapshot has, at most ten times.
func TestSnapshotConcurrentWithOneLPRun(t *testing.T) {
	base := Spec{Topology: Topology{Clusters: 2}, Workload: Workload{Load: 0.4}, Seed: 12345, HorizonMS: 2}
	capture := base
	capture.Capture = "cluster"
	full, err := Run(capture)
	if err != nil {
		t.Fatal(err)
	}
	models, err := core.TrainModels(full.Run.Records, base.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 8, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 20, Batch: 8, BPTT: 8, Seed: 1},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hybrid := base
	hybrid.Mode = "hybrid"
	for name, sp := range map[string]Spec{"full": base, "hybrid": hybrid} {
		t.Run(name, func(t *testing.T) {
			for try := 0; try < 10; try++ {
				if hammerRun(t, sp, models) > 0 {
					return
				}
			}
			t.Error("no snapshot caught the run in progress in ten runs")
		})
	}
}

// hammerRun runs sp while a goroutine loops over Registry.Snapshot and
// Progress, checks the readings, and returns how many snapshots caught the
// run in progress.
func hammerRun(t *testing.T, sp Spec, models *core.Models) (mid int) {
	t.Helper()
	reg, prog, end := metrics.NewRegistry(), &obs.Progress{}, sp.Normalized().end()
	quit, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last des.Time
		for i := 0; ; i++ {
			if i == 1 {
				close(started)
			}
			select {
			case <-quit:
				return
			default:
			}
			snap := reg.Snapshot()
			if vt := des.Time(snap.Gauge("des", "virtual_time_ns")); vt > 0 && vt < end {
				mid++
			}
			now := prog.Committed()
			if now < last {
				t.Errorf("committed time ran backwards: %v then %v", last, now)
				return
			}
			last = now
			_ = prog.Events()
		}
	}()
	<-started
	res, err := Run(sp, WithRegistry(reg), WithProgress(prog), WithModels(models))
	close(quit)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("des", "events_executed"); got != res.Perf.Events || prog.Events() != got {
		t.Errorf("events: snapshot %d, progress %d, perf %d", got, prog.Events(), res.Perf.Events)
	}
	if prog.Committed() != end {
		t.Errorf("final committed %v, want %v", prog.Committed(), end)
	}
	return mid
}
