package pdes

import (
	"runtime"
	"testing"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/topology"
)

// runWithWatchdog fails the test if fn does not return within the deadline —
// the signature of a cross-LP send deadlock.
func runWithWatchdog(t *testing.T, deadline time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal("PDES run deadlocked (watchdog expired)")
	}
}

// TestTinyInboxNoDeadlock is the regression test for the bounded-inbox
// deadlock: with capacity-1 inboxes and heavy bidirectional cross-LP
// traffic, the old blocking sends in proxy.Receive/sendNulls wedged both
// LPs permanently (each blocked sending into the other's full inbox).
// The drain-while-sending loop in LP.send must make this complete.
func TestTinyInboxNoDeadlock(t *testing.T) {
	s, a, b := twoHostSystem(t, WithInboxCap(1))
	gotA, gotB := 0, 0
	a.Handler = func(*packet.Packet) { gotA++ }
	b.Handler = func(*packet.Packet) { gotB++ }
	const burst = 200
	s.LP(0).Kernel().Schedule(0, func() {
		for i := 0; i < burst; i++ {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
		}
	})
	s.LP(1).Kernel().Schedule(0, func() {
		for i := 0; i < burst; i++ {
			b.Send(&packet.Packet{Src: 1, Dst: 0, PayloadLen: 934})
		}
	})
	runWithWatchdog(t, 30*time.Second, func() { s.Run(10 * des.Millisecond) })
	if gotA != burst || gotB != burst {
		t.Errorf("delivered %d/%d packets, want %d each way", gotA, gotB, burst)
	}
	if v := s.Stats().Violations; v != 0 {
		t.Errorf("%d causality violations under tiny inboxes", v)
	}
}

// TestTinyInboxBarrierNoDeadlock exercises the same bounded-inbox hazard in
// barrier mode, where all LPs send concurrently inside each window.
func TestTinyInboxBarrierNoDeadlock(t *testing.T) {
	s, a, b := twoHostSystem(t, WithInboxCap(1), WithSyncAlgo(Barrier))
	gotA, gotB := 0, 0
	a.Handler = func(*packet.Packet) { gotA++ }
	b.Handler = func(*packet.Packet) { gotB++ }
	const burst = 200
	s.LP(0).Kernel().Schedule(0, func() {
		for i := 0; i < burst; i++ {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
		}
	})
	s.LP(1).Kernel().Schedule(0, func() {
		for i := 0; i < burst; i++ {
			b.Send(&packet.Packet{Src: 1, Dst: 0, PayloadLen: 934})
		}
	})
	runWithWatchdog(t, 30*time.Second, func() { s.Run(10 * des.Millisecond) })
	if gotA != burst || gotB != burst {
		t.Errorf("delivered %d/%d packets, want %d each way", gotA, gotB, burst)
	}
	if v := s.Stats().Violations; v != 0 {
		t.Errorf("%d causality violations under tiny inboxes (barrier)", v)
	}
}

// TestBarrierOversubscribedTinyInbox runs more barrier LPs than cores: four
// LPs on GOMAXPROCS(1) with capacity-1 inboxes. A window waiter that spun
// without yielding would starve the LPs still computing, and a lost wakeup
// would park a waiter forever; either way the run would not finish. It must
// finish and commit the same netsim+tcp result as the single-LP reference.
func TestBarrierOversubscribedTinyInbox(t *testing.T) {
	cfg := topology.DefaultLeafSpineConfig(4)
	const (
		load = 0.6
		dur  = 2 * des.Millisecond
		seed = 3
	)
	run := func(lps int, algo SyncAlgo, opts ...Option) string {
		reg := metrics.NewRegistry()
		res, err := runNetwork(cfg, lps, load, dur, seed, algo, reg, nil, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations != 0 {
			t.Fatalf("lps=%d: %d causality violations", lps, res.Violations)
		}
		return committedGroups(t, reg)
	}
	ref := run(1, NullMessages)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got string
	runWithWatchdog(t, 60*time.Second, func() { got = run(4, Barrier, WithInboxCap(1)) })
	if got != ref {
		t.Errorf("oversubscribed barrier run diverged from lps=1:\nref: %s\ngot: %s", ref, got)
	}
}

// TestBarrierWakesParkedWorkers drives the window release directly: one LP
// arrives late at every window, long after the others have used up their
// polling budget and parked, so each release must wake parked waiters. A lost
// wakeup leaves a waiter parked for good and trips the watchdog.
func TestBarrierWakesParkedWorkers(t *testing.T) {
	const windows = 20
	s := NewSystem(3)
	b := newBarrier(s.NumLPs())
	runWithWatchdog(t, 30*time.Second, func() {
		done := make(chan struct{})
		for i := 0; i < s.NumLPs(); i++ {
			go func(lp *LP) {
				defer func() { done <- struct{}{} }()
				for k := int64(1); k <= windows; k++ {
					if lp.ID() == 0 {
						time.Sleep(2 * time.Millisecond)
					}
					lp.awaitWindow(b, k)
				}
			}(s.LP(i))
		}
		for i := 0; i < s.NumLPs(); i++ {
			<-done
		}
	})
	if got := b.arrived.Load(); got != windows*int64(s.NumLPs()) {
		t.Errorf("%d arrivals, want %d", got, windows*s.NumLPs())
	}
}

// TestBarrierWindowsDoNotAllocate pins the persistent barrier workers: a
// window costs no goroutine, channel or WaitGroup. A near-idle 10 ms run has
// 900 more 10 µs windows than a 1 ms run and may allocate at most 0.05 more
// objects per extra window.
func TestBarrierWindowsDoNotAllocate(t *testing.T) {
	allocs := func(end des.Time) float64 {
		return testing.AllocsPerRun(5, func() {
			s, a, _ := twoHostSystem(t, WithSyncAlgo(Barrier))
			s.LP(0).Kernel().Schedule(0, func() {
				a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
			})
			s.Run(end)
		})
	}
	const short, long = des.Millisecond, 10 * des.Millisecond
	extraWindows := float64((long - short) / (10 * des.Microsecond))
	short1, long1 := allocs(short), allocs(long)
	if per := (long1 - short1) / extraWindows; per >= 0.05 {
		t.Errorf("%.0f allocs at 1 ms, %.0f at 10 ms: %.3f per extra window, want < 0.05",
			short1, long1, per)
	}
}

// TestFinalDrainTinyInbox pins the final catch-up rewrite (the old barrier
// epilogue drained and ran each LP *sequentially*): events at exactly the
// horizon emit cross-LP sends that are always stamped beyond it (lookahead is
// positive), and with capacity-1 inboxes the sequential drain wedged — the
// first LP's catch-up blocked sending into the second's full inbox while the
// second was not yet draining, and the send fallback spun on the sender's own
// empty inbox forever. The concurrent two-phase catch-up must complete under
// both conservative engines, and every beyond-horizon packet must be parked
// and accounted as a ParkedArrival rather than silently lost.
func TestFinalDrainTinyInbox(t *testing.T) {
	const (
		end   = 100 * des.Microsecond
		burst = 64
	)
	for _, algo := range []SyncAlgo{NullMessages, Barrier} {
		t.Run(algo.String(), func(t *testing.T) {
			s := NewSystem(2, WithInboxCap(1), WithSyncAlgo(algo))
			a := netsim.NewHost(s.LP(0).Kernel(), 0, 0)
			b := netsim.NewHost(s.LP(1).Kernel(), 1, 1)
			// Near-infinite bandwidth: serialization rounds to zero, so a
			// packet handed to the NIC at the horizon finishes transmitting at
			// the horizon and its cross-LP arrival (horizon + lookahead) is
			// post-horizon by construction.
			cfg := netsim.LinkConfig{BandwidthBps: 1e15, PropDelay: 0, QueueBytes: 1 << 26}
			na := a.AttachNIC(cfg)
			nb := b.AttachNIC(cfg)
			if err := s.Connect(s.LP(0), na, s.LP(1), nb, a, b, 10*des.Microsecond); err != nil {
				t.Fatal(err)
			}
			// Per-LP counters: the resumed segment delivers on both LP
			// goroutines concurrently, so a shared counter would race.
			gotA, gotB := 0, 0
			a.Handler = func(*packet.Packet) { gotA++ }
			b.Handler = func(*packet.Packet) { gotB++ }
			s.LP(0).Kernel().Schedule(end, func() {
				for i := 0; i < burst; i++ {
					a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 100})
				}
			})
			s.LP(1).Kernel().Schedule(end, func() {
				for i := 0; i < burst; i++ {
					b.Send(&packet.Packet{Src: 1, Dst: 0, PayloadLen: 100})
				}
			})
			runWithWatchdog(t, 30*time.Second, func() { s.Run(end) })
			if gotA+gotB != 0 {
				t.Errorf("%d beyond-horizon packets were delivered, want 0", gotA+gotB)
			}
			st := s.Stats()
			if st.ParkedArrivals != 2*burst {
				t.Errorf("parked arrivals = %d, want %d (one per horizon-stamped send)",
					st.ParkedArrivals, 2*burst)
			}
			if st.PostHorizonDrops != 0 {
				t.Errorf("post-horizon drops = %d, want 0 (conservative engines park, never drop)",
					st.PostHorizonDrops)
			}
			if st.Violations != 0 {
				t.Errorf("%d causality violations", st.Violations)
			}
			for i := 0; i < s.NumLPs(); i++ {
				if n := s.LP(i).Kernel().Pending(); n != 0 {
					t.Errorf("LP %d kernel has %d pending events after the run, want 0", i, n)
				}
			}
			// The parked burst is in-flight traffic, not loss: the next run
			// segment must deliver every packet exactly once, with no recount.
			runWithWatchdog(t, 30*time.Second, func() { s.Run(end + 100*des.Microsecond) })
			if gotA != burst || gotB != burst {
				t.Errorf("next segment delivered %d/%d parked packets, want %d each way",
					gotA, gotB, burst)
			}
			if st := s.Stats(); st.ParkedArrivals != 2*burst {
				t.Errorf("parked arrivals after resume = %d, want %d (first park counts once)",
					st.ParkedArrivals, 2*burst)
			}
		})
	}
}

// postHorizonScenario sends exactly one packet timed so its serialization
// completes inside the run but its cross-LP arrival stamp lands beyond the
// horizon: send at 90us, tx done at 98us, arrival 98us + 10us lookahead =
// 108us > end = 100us.
func postHorizonScenario(t *testing.T, opts ...Option) (*System, *int) {
	t.Helper()
	s, a, b := twoHostSystem(t, opts...)
	got := 0
	b.Handler = func(*packet.Packet) { got++ }
	s.LP(0).Kernel().Schedule(90*des.Microsecond, func() {
		a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
	})
	return s, &got
}

// checkPostHorizonParked asserts the post-run state is clean: the
// beyond-horizon packet must be parked and accounted (never delivered early,
// never dropped, never left as a phantom pending event that skews Pending()
// after the run).
func checkPostHorizonParked(t *testing.T, s *System, got int) {
	t.Helper()
	if got != 0 {
		t.Errorf("beyond-horizon packet was delivered %d times, want 0", got)
	}
	for i := 0; i < s.NumLPs(); i++ {
		if n := s.LP(i).Kernel().Pending(); n != 0 {
			t.Errorf("LP %d kernel has %d pending events after the run, want 0", i, n)
		}
	}
	st := s.Stats()
	if st.ParkedArrivals == 0 {
		t.Error("beyond-horizon packet was not accounted as a parked arrival")
	}
	if st.PostHorizonDrops != 0 {
		t.Errorf("post-horizon drops = %d, want 0 (conservative engines park, never drop)",
			st.PostHorizonDrops)
	}
	if st.Violations != 0 {
		t.Errorf("%d causality violations", st.Violations)
	}
}

func TestRunParksPostHorizonPackets(t *testing.T) {
	s, got := postHorizonScenario(t)
	s.Run(100 * des.Microsecond)
	checkPostHorizonParked(t, s, *got)
	// The arrival is stamped 108us; a second segment past that delivers it.
	s.Run(120 * des.Microsecond)
	if *got != 1 {
		t.Errorf("parked packet delivered %d times by the next segment, want 1", *got)
	}
}

func TestRunBarrierParksPostHorizonPackets(t *testing.T) {
	s, got := postHorizonScenario(t, WithSyncAlgo(Barrier))
	s.Run(100 * des.Microsecond)
	checkPostHorizonParked(t, s, *got)
	s.Run(120 * des.Microsecond)
	if *got != 1 {
		t.Errorf("parked packet delivered %d times by the next segment, want 1", *got)
	}
}

// TestParkedRepark pins the recounting rule: a packet that stays beyond TWO
// successive horizons is re-parked by the intermediate segment without being
// counted again — ParkedArrivals counts in-flight packets, not park events.
func TestParkedRepark(t *testing.T) {
	s, got := postHorizonScenario(t)
	s.Run(100 * des.Microsecond) // arrival stamped 108us parks
	s.Run(105 * des.Microsecond) // still beyond the horizon: re-parks silently
	if *got != 0 {
		t.Fatalf("packet delivered %d times before its timestamp, want 0", *got)
	}
	if st := s.Stats(); st.ParkedArrivals != 1 {
		t.Errorf("parked arrivals = %d after re-park, want 1", st.ParkedArrivals)
	}
	s.Run(120 * des.Microsecond)
	if *got != 1 {
		t.Errorf("parked packet delivered %d times, want 1", *got)
	}
	if st := s.Stats(); st.ParkedArrivals != 1 {
		t.Errorf("parked arrivals = %d after delivery, want 1", st.ParkedArrivals)
	}
}

// TestBarrierDeliversAtExactHorizon pins the other half of the barrier
// drain fix: a delivery stamped exactly at `end` must execute (as it does in
// the null-message engine), not linger in the heap. Send at 82us: tx done
// 90us, arrival 90+10 = 100us = end.
func TestBarrierDeliversAtExactHorizon(t *testing.T) {
	s, a, b := twoHostSystem(t, WithSyncAlgo(Barrier))
	got := 0
	b.Handler = func(*packet.Packet) { got++ }
	s.LP(0).Kernel().Schedule(82*des.Microsecond, func() {
		a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 934})
	})
	s.Run(100 * des.Microsecond)
	if got != 1 {
		t.Errorf("at-horizon packet delivered %d times, want 1", got)
	}
	if n := s.LP(1).Kernel().Pending(); n != 0 {
		t.Errorf("receiver kernel has %d pending events after the run, want 0", n)
	}
}

// TestLeafSpineStress is the PDES stress test: one LP per rack with dense
// ToR-spine cross-LP connectivity and heavy traffic, designed to run under
// the race detector. Any data race, deadlock, or causality violation in the
// synchronization engine should surface here.
func TestLeafSpineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	for _, algo := range []SyncAlgo{NullMessages, Barrier} {
		name := "null"
		if algo == Barrier {
			name = "barrier"
		}
		t.Run(name, func(t *testing.T) {
			var res *ExperimentResult
			runWithWatchdog(t, 120*time.Second, func() {
				var err error
				res, err = runNetwork(topology.DefaultLeafSpineConfig(8), 8, 0.6, 2*des.Millisecond, 7, algo, nil, nil)
				if err != nil {
					t.Error(err)
				}
			})
			if t.Failed() {
				return
			}
			if res.FlowsStarted == 0 || res.FlowsCompleted == 0 {
				t.Fatalf("stress run moved no traffic: %+v", res)
			}
			if res.CrossPkts == 0 {
				t.Error("stress run shipped no cross-LP packets")
			}
			if res.Violations != 0 {
				t.Errorf("%d causality violations under stress", res.Violations)
			}
		})
	}
}
