package pdes

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
)

func TestSingleLPRunsLocally(t *testing.T) {
	s := NewSystem(1)
	fired := false
	s.LP(0).Kernel().Schedule(100, func() { fired = true })
	s.Run(des.Second)
	if !fired {
		t.Error("single-LP system did not execute local events")
	}
}

// TestIngestLateArrivalRecovers: a cross-LP packet stamped before the
// receiver's clock is a causality violation. Ingest counts it and delivers
// the packet at the receiver's Now instead of scheduling into the kernel's
// past, which would panic.
func TestIngestLateArrivalRecovers(t *testing.T) {
	s := NewSystem(2)
	lp := s.LP(1)
	lp.end = des.Millisecond
	lp.lastRecv = []des.Time{0, des.MaxTime}
	lp.kernel.Run(100)
	var at []des.Time
	via := &proxy{key: 1, deliver: func(any) { at = append(at, lp.kernel.Now()) }}
	lp.ingest(message{from: 0, at: 50, pkt: &packet.Packet{}, via: via})
	lp.kernel.Run(200)
	if v := lp.count[Violations].Load(); v != 1 {
		t.Errorf("Violations = %d, want 1", v)
	}
	if len(at) != 1 || at[0] != 100 {
		t.Errorf("delivered at %v, want once at 100ns", at)
	}
}

func TestNewSystemPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem(0) did not panic")
		}
	}()
	NewSystem(0)
}

// twoHostSystem wires host A on LP0 to host B on LP1 over one duplex link,
// on a system built with opts. The hosts are registered as rollback savers,
// so the pair also runs under Time Warp.
func twoHostSystem(t *testing.T, opts ...Option) (*System, *netsim.Host, *netsim.Host) {
	t.Helper()
	s := NewSystem(2, opts...)
	a := netsim.NewHost(s.LP(0).Kernel(), 0, 0)
	b := netsim.NewHost(s.LP(1).Kernel(), 1, 1)
	s.LP(0).AddSaver(a)
	s.LP(1).AddSaver(b)
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, PropDelay: 0, QueueBytes: 1 << 26}
	na := a.AttachNIC(cfg)
	nb := b.AttachNIC(cfg)
	if err := s.Connect(s.LP(0), na, s.LP(1), nb, a, b, 10*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

func TestCrossLPPacketDelivery(t *testing.T) {
	s, a, b := twoHostSystem(t)
	var got []*packet.Packet
	var at []des.Time
	b.Handler = func(p *packet.Packet) {
		got = append(got, p)
		at = append(at, s.LP(1).Kernel().Now())
	}
	s.LP(0).Kernel().Schedule(0, func() {
		a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
	})
	s.Run(des.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets across LPs, want 1", len(got))
	}
	// ser(1000B @1G) = 8us + 10us lookahead = 18us.
	if at[0] != 18*des.Microsecond {
		t.Errorf("cross-LP arrival at %v, want 18us", at[0])
	}
}

func TestCrossLPTimestampOrderPreserved(t *testing.T) {
	s, a, b := twoHostSystem(t)
	var at []des.Time
	b.Handler = func(p *packet.Packet) {
		at = append(at, s.LP(1).Kernel().Now())
	}
	s.LP(0).Kernel().Schedule(0, func() {
		for i := 0; i < 20; i++ {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
		}
	})
	s.Run(des.Millisecond)
	if len(at) != 20 {
		t.Fatalf("delivered %d, want 20", len(at))
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("cross-LP deliveries out of timestamp order")
		}
		if at[i]-at[i-1] != 8*des.Microsecond {
			t.Errorf("spacing %v, want serialization 8us", at[i]-at[i-1])
		}
	}
}

func TestConnectValidation(t *testing.T) {
	s := NewSystem(2)
	a := netsim.NewHost(s.LP(0).Kernel(), 0, 0)
	b := netsim.NewHost(s.LP(1).Kernel(), 1, 1)
	good := netsim.LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 20}
	na := a.AttachNIC(good)
	nb := b.AttachNIC(good)
	if err := s.Connect(s.LP(0), na, s.LP(1), nb, a, b, 0); err == nil {
		t.Error("zero lookahead accepted for cross-LP link")
	}
	bad := netsim.LinkConfig{BandwidthBps: 1e9, PropDelay: 100, QueueBytes: 1 << 20}
	c := netsim.NewHost(s.LP(0).Kernel(), 2, 2)
	nc := c.AttachNIC(bad)
	if err := s.Connect(s.LP(0), nc, s.LP(1), nb, c, b, 100); err == nil {
		t.Error("nonzero port propagation accepted for cross-LP link")
	}
}

func TestTCPFlowAcrossLPs(t *testing.T) {
	s, a, b := twoHostSystem(t)
	sa := tcp.NewStack(a, tcp.Config{})
	tcp.NewStack(b, tcp.Config{})
	done := false
	s.LP(0).Kernel().Schedule(des.Microsecond, func() {
		sa.StartFlow(1, 100_000, 1, func(tcp.FlowResult) { done = true })
	})
	s.Run(des.Second)
	if !done {
		t.Fatal("TCP flow across LP boundary never completed")
	}
}

func TestNullMessagesFlow(t *testing.T) {
	s, _, _ := twoHostSystem(t)
	s.Run(des.Millisecond)
	// Idle LPs must still exchange nulls to advance time in lookahead
	// steps: 1ms / 10us lookahead = ~100 rounds each direction.
	st := s.Stats()
	if st[Nulls] < 100 {
		t.Errorf("only %d null messages for a 1ms idle run with 10us lookahead", st[Nulls])
	}
}

func TestBuildLeafSpineValidation(t *testing.T) {
	bad := topology.DefaultLeafSpineConfig(4)
	bad.Clusters = 2
	if _, err := Build(bad, 1, nil); err == nil {
		t.Error("invalid leaf-spine config accepted")
	}
	if _, err := Build(topology.DefaultLeafSpineConfig(4), 0, nil); err == nil {
		t.Error("0 LPs accepted")
	}
	if _, err := Build(topology.DefaultLeafSpineConfig(4), 8, nil); err == nil {
		t.Error("more LPs than racks accepted")
	}
}

// runExperiment is a tiny Fig. 1 cell used by several tests.
func runExperiment(t *testing.T, n, lps int) *Network {
	t.Helper()
	net, err := runNetwork(topology.DefaultLeafSpineConfig(n), lps, 0.3, 2*des.Millisecond, 9, NullMessages, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v := net.Sys.Stats()[Violations]; v != 0 {
		t.Fatalf("%d causality violations (synchronization bug)", v)
	}
	return net
}

// TestLeafSpineSingleThreaded: one LP moves traffic with no cross-LP
// machinery. (Sim-per-wall is measured where runs are timed:
// scenario.TestReduceMatchesNetwork checks it.)
func TestLeafSpineSingleThreaded(t *testing.T) {
	net := runExperiment(t, 4, 1)
	if net.FlowsStarted() == 0 || completed(net) == 0 {
		t.Fatalf("no traffic: %d flows started, %d completed", net.FlowsStarted(), completed(net))
	}
	if st := net.Sys.Stats(); st[Nulls] != 0 || st[CrossPkts] != 0 {
		t.Errorf("single-threaded run produced cross-LP traffic: %v", st)
	}
}

func TestLeafSpineParallelMatchesSequential(t *testing.T) {
	seq := runExperiment(t, 4, 1)
	par := runExperiment(t, 4, 4)
	if par.FlowsStarted() != seq.FlowsStarted() {
		t.Fatalf("workloads differ: %d vs %d flows", par.FlowsStarted(), seq.FlowsStarted())
	}
	parDone, seqDone := completed(par), completed(seq)
	if parDone == 0 {
		t.Fatal("parallel run completed no flows")
	}
	// Causality violations would desynchronize TCP wholesale; identical
	// workloads should complete a very similar flow count. (Cross-LP tie
	// ordering may differ, so exact equality is not guaranteed.)
	lo, hi := seqDone*8/10, seqDone*12/10+1
	if parDone < lo || parDone > hi {
		t.Errorf("parallel completed %d flows, sequential %d: suspicious divergence", parDone, seqDone)
	}
	if st := par.Sys.Stats(); st[Nulls] == 0 || st[CrossPkts] == 0 {
		t.Error("parallel run shows no synchronization traffic")
	}
}

func TestParallelEventCountComparable(t *testing.T) {
	seq := runExperiment(t, 4, 2)
	// Total *useful* events should be in the same ballpark as sequential;
	// the overhead is in messages and blocked time, not phantom events.
	single := runExperiment(t, 4, 1)
	ratio := float64(seq.Sys.Stats()[Events]) / float64(single.Sys.Stats()[Events])
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("event count ratio parallel/sequential = %.2f, want ~1", ratio)
	}
}

func TestDeterministicSequentialExperiment(t *testing.T) {
	a := runExperiment(t, 4, 1)
	b := runExperiment(t, 4, 1)
	if ea, eb := a.Sys.Stats()[Events], b.Sys.Stats()[Events]; ea != eb || completed(a) != completed(b) {
		t.Errorf("sequential experiment not deterministic: %d events, %d completed vs %d events, %d completed",
			ea, completed(a), eb, completed(b))
	}
}

// TestConservativeRunOneGoroutinePerLP pins the shared lifecycle of both
// conservative engines: a multi-LP Run starts exactly one goroutine per LP —
// plus the one run monitor when it has a sampler or a flight recorder to
// feed — each LP's loop and its catch-up at the horizon run on that
// goroutine, and every goroutine Run started is gone once it returns.
func TestConservativeRunOneGoroutinePerLP(t *testing.T) {
	const end = 100 * des.Microsecond
	goroutineID := func() string {
		buf := make([]byte, 64)
		return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	}
	legs := []struct {
		name    string
		opts    func() []Option
		monitor int
	}{
		{"bare", func() []Option { return nil }, 0},
		{"monitored", func() []Option {
			return []Option{
				WithSampler(obs.NewSampler(metrics.NewRegistry(), io.Discard, 10*des.Microsecond)),
				WithObs(obs.New(obs.Options{FlightRecorder: 64})),
			}
		}, 1},
	}
	for _, algo := range []SyncAlgo{NullMessages, Barrier} {
		t.Run(algo.String(), func(t *testing.T) {
			for _, leg := range legs {
				t.Run(leg.name, func(t *testing.T) {
					s, a, _ := twoHostSystem(t, append(leg.opts(), WithSyncAlgo(algo))...)
					s.LP(0).Kernel().Schedule(0, func() {
						a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
					})
					// Per-LP samples, each written only by its LP's own events.
					ids := make([][]string, s.NumLPs())
					counts := make([][]int, s.NumLPs())
					for i := 0; i < s.NumLPs(); i++ {
						for _, at := range []des.Time{0, end / 2, end} {
							s.LP(i).Kernel().Schedule(at, func() {
								ids[i] = append(ids[i], goroutineID())
								counts[i] = append(counts[i], runtime.NumGoroutine())
							})
						}
					}
					base := runtime.NumGoroutine()
					if err := s.Run(end); err != nil {
						t.Fatal(err)
					}
					want := base + s.NumLPs() + leg.monitor
					for i := range ids {
						if len(ids[i]) != 3 {
							t.Fatalf("LP %d ran %d of its 3 events", i, len(ids[i]))
						}
						if ids[i][0] != ids[i][1] || ids[i][0] != ids[i][2] {
							t.Errorf("LP %d ran its events at 0, mid-run and the horizon on goroutines %v, want one", i, ids[i])
						}
						for _, n := range counts[i] {
							if n != want {
								t.Errorf("LP %d saw %d goroutines during Run, want %d (one per LP and %d monitor beyond the %d before it)",
									i, n, want, leg.monitor, base)
							}
						}
					}
					waitGoroutines(t, base)
				})
			}
		})
	}
}

// waitGoroutines fails the test unless the goroutine count settles back to
// base: a goroutine Run joined may still be on its way out when Run returns.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want the %d before it (leak)", runtime.NumGoroutine(), base)
		}
	}
}

func TestBarrierModeDeliversAcrossLPs(t *testing.T) {
	s, a, b := twoHostSystem(t, WithSyncAlgo(Barrier))
	var at []des.Time
	b.Handler = func(p *packet.Packet) { at = append(at, s.LP(1).Kernel().Now()) }
	s.LP(0).Kernel().Schedule(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
		}
	})
	s.Run(des.Millisecond)
	if len(at) != 10 {
		t.Fatalf("barrier mode delivered %d of 10", len(at))
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("barrier-mode deliveries out of order")
		}
	}
	if s.LP(0).count[Barriers].Load() == 0 {
		t.Error("no barrier windows counted")
	}
}

func TestBarrierModeTCPFlow(t *testing.T) {
	s, a, b := twoHostSystem(t, WithSyncAlgo(Barrier))
	sa := tcp.NewStack(a, tcp.Config{})
	tcp.NewStack(b, tcp.Config{})
	done := false
	s.LP(0).Kernel().Schedule(des.Microsecond, func() {
		sa.StartFlow(1, 80_000, 1, func(tcp.FlowResult) { done = true })
	})
	s.Run(des.Second)
	if !done {
		t.Fatal("TCP flow did not complete under barrier synchronization")
	}
}

func TestBarrierMatchesNullMessageResults(t *testing.T) {
	// The two conservative algorithms must deliver the same packets for
	// the same scenario (ordering within a timestamp may differ).
	run := func(algo SyncAlgo) int {
		s, a, b := twoHostSystem(t, WithSyncAlgo(algo))
		got := 0
		b.Handler = func(*packet.Packet) { got++ }
		s.LP(0).Kernel().Schedule(0, func() {
			for i := 0; i < 25; i++ {
				a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 500})
			}
		})
		s.Run(des.Millisecond)
		return got
	}
	if nm, bar := run(NullMessages), run(Barrier); nm != bar {
		t.Errorf("null-message delivered %d, barrier %d", nm, bar)
	}
}

func TestRunLeafSpineSyncBarrier(t *testing.T) {
	net, err := runNetwork(topology.DefaultLeafSpineConfig(4), 2, 0.3, des.Millisecond, 9, Barrier, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if completed(net) == 0 {
		t.Fatal("barrier-sync experiment completed nothing")
	}
	st := net.Sys.Stats()
	if st[Barriers] == 0 {
		t.Error("no barrier windows counted")
	}
	if st[Nulls] != 0 {
		t.Error("barrier mode sent null messages")
	}
}
