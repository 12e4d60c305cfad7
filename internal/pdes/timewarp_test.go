package pdes

import (
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
)

// twRecorder is rollback-aware test state: arrival timestamps recorded from a
// host Handler survive Time Warp rollbacks only because the recorder is
// registered as a saver. Closure-local test state would double-count replays.
type twRecorder struct {
	arrivals []des.Time
}

func (r *twRecorder) SaveState() any { return append([]des.Time(nil), r.arrivals...) }
func (r *twRecorder) RestoreState(v any) {
	r.arrivals = append([]des.Time(nil), v.([]des.Time)...)
}

func TestTimeWarpCrossLPDelivery(t *testing.T) {
	s, a, b := twoHostSystem(t, WithSyncAlgo(TimeWarp), withGVTInterval(50*time.Microsecond))
	rec := &twRecorder{}
	s.LP(1).AddSaver(rec)
	b.Handler = func(p *packet.Packet) {
		rec.arrivals = append(rec.arrivals, s.LP(1).Kernel().Now())
	}
	s.LP(0).Kernel().Schedule(0, func() {
		a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
	})
	if err := s.Run(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rec.arrivals) != 1 {
		t.Fatalf("delivered %d packets across LPs, want 1", len(rec.arrivals))
	}
	// ser(1000B @1G) = 8us + 10us lookahead = 18us, same as the conservative
	// engines.
	if rec.arrivals[0] != 18*des.Microsecond {
		t.Errorf("cross-LP arrival at %v, want 18us", rec.arrivals[0])
	}
	if st := s.Stats(); st[Violations] != 0 {
		t.Errorf("causality violations under time warp: %d", st[Violations])
	}
}

func TestTimeWarpTCPFlowAcrossLPs(t *testing.T) {
	s, a, b := twoHostSystem(t, WithSyncAlgo(TimeWarp), withGVTInterval(50*time.Microsecond))
	sa := tcp.NewStack(a, tcp.Config{})
	sb := tcp.NewStack(b, tcp.Config{})
	s.LP(0).AddSaver(sa)
	s.LP(1).AddSaver(sb)
	var got []tcp.FlowResult
	s.LP(0).Kernel().Schedule(des.Microsecond, func() {
		sa.StartFlow(1, 100_000, 1, nil)
	})
	if err := s.Run(des.Second); err != nil {
		t.Fatal(err)
	}
	got = sa.Results()
	if len(got) != 1 || !got[0].Completed {
		t.Fatalf("flow did not complete under time warp: %+v", got)
	}
	if st := s.Stats(); st[Violations] != 0 {
		t.Errorf("causality violations: %d", st[Violations])
	}
}

// stragglerScenario drives a deterministic rollback: LP0 runs a dense local
// tick load and speculates ahead (it has no input promises to wait on), while
// LP1 stalls in wall-clock time inside an event before sending each of two
// packets. By the time they arrive, LP0's clock is far past their timestamps,
// forcing straggler rollbacks. The tick closure derives everything from
// kernel time so coast-forward replays it identically.
func stragglerScenario(t *testing.T, algo SyncAlgo, stall time.Duration, opts ...Option) (*System, *twRecorder) {
	t.Helper()
	s, a, b := twoHostSystem(t, append([]Option{WithSyncAlgo(algo),
		withGVTInterval(50 * time.Microsecond), withCheckpointEvery(16)}, opts...)...)
	rec := &twRecorder{}
	s.LP(0).AddSaver(rec)
	a.Handler = func(p *packet.Packet) {
		rec.arrivals = append(rec.arrivals, s.LP(0).Kernel().Now())
	}
	k0 := s.LP(0).Kernel()
	var tick func()
	tick = func() {
		if k0.Now() < 200*des.Microsecond {
			k0.Schedule(500*des.Nanosecond, tick)
		}
	}
	k0.Schedule(0, tick)
	// The second send is scheduled after the first packet's serialization
	// completes (~9us) so the two cross-LP emissions happen in separate
	// kernel steps — separate wall-clock stalls, hence two distinct
	// stragglers rather than one batch.
	k1 := s.LP(1).Kernel()
	for _, at := range []des.Time{des.Microsecond, 25 * des.Microsecond} {
		k1.At(at, func() {
			time.Sleep(stall) // wall-clock only: lets LP0 race ahead
			b.Send(&packet.Packet{Src: 1, Dst: 0, PayloadLen: 934})
		})
	}
	return s, rec
}

func TestTimeWarpStragglerRollback(t *testing.T) {
	s, rec := stragglerScenario(t, TimeWarp, 3*time.Millisecond)
	if err := s.Run(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Reference: the same virtual scenario under null messages.
	sRef, recRef := stragglerScenario(t, NullMessages, 0)
	if err := sRef.Run(des.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st[Rollbacks] == 0 {
		t.Error("scenario forced no rollback (wanted at least one straggler)")
	}
	if st[Violations] != 0 {
		t.Errorf("causality violations: %d", st[Violations])
	}
	if st[GVTAdvances] == 0 {
		t.Error("GVT never advanced")
	}
	if len(rec.arrivals) != len(recRef.arrivals) {
		t.Fatalf("committed %d arrivals under time warp, %d under null messages",
			len(rec.arrivals), len(recRef.arrivals))
	}
	for i := range rec.arrivals {
		if rec.arrivals[i] != recRef.arrivals[i] {
			t.Errorf("arrival %d at %v under time warp, %v under null messages",
				i, rec.arrivals[i], recRef.arrivals[i])
		}
	}
}

func TestTimeWarpMaxRollbacksAborts(t *testing.T) {
	s, _ := stragglerScenario(t, TimeWarp, 3*time.Millisecond, WithMaxRollbacks(1))
	if err := s.Run(des.Millisecond); err == nil {
		t.Fatal("run with rollback budget 1 on a two-straggler scenario returned nil error")
	}
}

func TestRunRejectsUnknownAlgo(t *testing.T) {
	s := NewSystem(1, WithSyncAlgo(SyncAlgo(99)))
	if err := s.Run(des.Millisecond); err == nil {
		t.Fatal("unknown sync algorithm accepted")
	}
}

func TestParseSyncAlgo(t *testing.T) {
	for name, want := range map[string]SyncAlgo{
		"nullmsg": NullMessages, "null": NullMessages,
		"barrier": Barrier, "timewarp": TimeWarp,
	} {
		got, err := ParseSyncAlgo(name)
		if err != nil || got != want {
			t.Errorf("ParseSyncAlgo(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseSyncAlgo("optimistic"); err == nil {
		t.Error("ParseSyncAlgo accepted an unknown name")
	}
	for _, a := range []SyncAlgo{NullMessages, Barrier, TimeWarp} {
		if back, err := ParseSyncAlgo(a.String()); err != nil || back != a {
			t.Errorf("round trip of %v failed: %v, %v", a, back, err)
		}
	}
}

// leafSpineFlows runs the standard Fig. 1 leaf-spine workload under one
// synchronization algorithm and returns the per-flow outcomes sorted by ID.
func leafSpineFlows(t *testing.T, algo SyncAlgo, opts ...Option) ([]tcp.FlowResult, Stats) {
	t.Helper()
	cfg := topology.DefaultLeafSpineConfig(4)
	dur := 5 * des.Millisecond
	specs, err := poissonSpecs(cfg, 0.5, dur, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Fatal("workload generated no flows")
	}
	net, err := Build(cfg, 2, specs, append([]Option{WithSyncAlgo(algo)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Sys.Run(dur); err != nil {
		t.Fatal(err)
	}
	return sortedFlows(net.Results()), net.Sys.Stats()
}

// TestCrossAlgoEquivalence is the central correctness claim of the redesign:
// on the same topology, workload, and seed, all three synchronization
// algorithms commit identical per-flow results, and none violates causality.
func TestCrossAlgoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine leaf-spine comparison is slow")
	}
	ref, refStats := leafSpineFlows(t, NullMessages)
	if refStats[Violations] != 0 {
		t.Fatalf("null messages: %d causality violations", refStats[Violations])
	}
	completed := 0
	for _, r := range ref {
		if r.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("reference run completed no flows")
	}
	for _, algo := range []SyncAlgo{Barrier, TimeWarp} {
		got, st := leafSpineFlows(t, algo, withGVTInterval(50*time.Microsecond))
		if st[Violations] != 0 {
			t.Errorf("%v: %d causality violations", algo, st[Violations])
		}
		if len(got) != len(ref) {
			t.Errorf("%v: %d flows, reference has %d", algo, len(got), len(ref))
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("%v: flow %d = %+v, reference %+v",
					algo, got[i].FlowID, got[i], ref[i])
			}
		}
	}
}

// TestTimeWarpRollbackStress shakes the optimistic engine — and, under
// -race, its cross-goroutine protocol — with an aggressive configuration:
// a tiny speculation window and cheap checkpoints force frequent GVT rounds
// and make any straggler cascade through rollbacks. Whatever the rollbacks
// undo, the committed netsim+tcp snapshot must equal a sequential run's.
func TestTimeWarpRollbackStress(t *testing.T) {
	const seed = 11
	cfg := topology.DefaultLeafSpineConfig(4)
	run := func(algo SyncAlgo, lps int, opts ...Option) (string, Stats) {
		reg := metrics.NewRegistry()
		net, err := runNetwork(cfg, lps, 0.6, 2*des.Millisecond, seed, algo, reg, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return committedGroups(t, reg), net.Sys.Stats()
	}
	ref, _ := run(NullMessages, 1)
	got, st := run(TimeWarp, 4,
		withGVTInterval(20*time.Microsecond),
		withCheckpointEvery(32),
		withTimeWindow(20*des.Microsecond))
	t.Logf("rollbacks=%d gvt_advances=%d", st[Rollbacks], st[GVTAdvances])
	if st[Violations] != 0 {
		t.Errorf("causality violations under stress: %d", st[Violations])
	}
	if st[GVTAdvances] == 0 {
		t.Error("GVT never advanced under stress")
	}
	if got != ref {
		t.Errorf("committed snapshot after %d rollbacks diverged from the sequential reference:\nref: %s\ngot: %s",
			st[Rollbacks], ref, got)
	}
}
