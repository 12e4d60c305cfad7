package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2_500_000, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1, 12.5} {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	// Events at the same timestamp must fire in schedule order.
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() {
		fired = append(fired, k.Now())
		k.Schedule(5, func() { fired = append(fired, k.Now()) })
		// Same-time event scheduled from within an event still fires.
		k.Schedule(0, func() { fired = append(fired, k.Now()) })
	})
	k.RunAll()
	want := []Time{10, 10, 15}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.Schedule(10, func() { ran = true })
	k.Cancel(e)
	k.RunAll()
	if ran {
		t.Error("canceled event ran")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	// Double cancel and nil cancel are no-ops.
	k.Cancel(e)
	k.Cancel(nil)
}

func TestCancelThenReschedule(t *testing.T) {
	k := NewKernel()
	count := 0
	var timer *Event
	arm := func(d Time) {
		if timer != nil {
			k.Cancel(timer)
		}
		timer = k.Schedule(d, func() { count++ })
	}
	arm(10)
	arm(20)
	arm(30)
	k.RunAll()
	if count != 1 {
		t.Errorf("re-armed timer fired %d times, want 1", count)
	}
	if k.Now() != 30 {
		t.Errorf("fired at %v, want 30", k.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v before horizon 25", fired)
	}
	if k.Now() != 25 {
		t.Errorf("Now = %v after Run(25)", k.Now())
	}
	// Resume picks up the remaining events.
	k.Run(100)
	if len(fired) != 4 {
		t.Errorf("after resume fired %v", fired)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	k := NewKernel()
	k.Run(1000)
	if k.Now() != 1000 {
		t.Errorf("idle Run(1000) left Now = %v", k.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.RunAll()
}

func TestNilEventFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	NewKernel().Schedule(1, nil)
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventTime(); ok {
		t.Error("empty kernel reported a next event")
	}
	e1 := k.Schedule(50, func() {})
	k.Schedule(70, func() {})
	if tm, ok := k.NextEventTime(); !ok || tm != 50 {
		t.Errorf("NextEventTime = %v,%v want 50,true", tm, ok)
	}
	// Canceling the head must expose the next live event.
	k.Cancel(e1)
	if tm, ok := k.NextEventTime(); !ok || tm != 70 {
		t.Errorf("after cancel NextEventTime = %v,%v want 70,true", tm, ok)
	}
}

func TestStats(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	k.Cancel(e)
	k.RunAll()
	s := k.Stats()
	if s.Scheduled != 2 || s.Executed != 1 || s.Canceled != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Error("Step on empty kernel returned true")
	}
	e := k.Schedule(5, func() {})
	k.Cancel(e)
	if k.Step() {
		t.Error("Step over only-canceled events returned true")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and every scheduled (uncanceled) event fires exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 500 {
			delays = delays[:500]
		}
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times matches the multiset of delays.
		want := make([]int, len(delays))
		for i, d := range delays {
			want[i] = int(d)
		}
		got := make([]int, len(fired))
		for i, tm := range fired {
			got[i] = int(tm)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: heap behaves identically to a reference sort under random
// interleavings of schedule at increasing current times.
func TestPropertyCancellationConsistency(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		k := NewKernel()
		fired := 0
		events := make([]*Event, 0, len(delays))
		for _, d := range delays {
			events = append(events, k.Schedule(Time(d), func() { fired++ }))
		}
		want := len(delays)
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] {
				k.Cancel(e)
				want--
			}
		}
		k.RunAll()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleExecute(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%1000), func() {})
		if k.Pending() > 1024 {
			for k.Step() && k.Pending() > 512 {
			}
		}
	}
	k.RunAll()
}

func BenchmarkTimerChurn(b *testing.B) {
	// The TCP pattern: arm, cancel, re-arm.
	k := NewKernel()
	b.ReportAllocs()
	var timer *Event
	for i := 0; i < b.N; i++ {
		if timer != nil {
			k.Cancel(timer)
		}
		timer = k.Schedule(1000, func() {})
		if i%64 == 0 {
			k.Run(k.Now() + 10)
		}
	}
}

// checkHeap asserts the heap invariants eager cancellation rests on: every
// member's index is its position, and every parent precedes its children.
func checkHeap(t *testing.T, k *Kernel) {
	t.Helper()
	for i, e := range k.heap {
		if e.index != i {
			t.Fatalf("heap[%d] records index %d", i, e.index)
		}
		if i > 0 && e.before(k.heap[(i-1)/2]) {
			t.Fatalf("heap[%d] precedes its parent", i)
		}
	}
}

// Property: random interleavings of schedule (both handler forms), cancel of
// the head, middle or tail of the pending set, Step, and Run/RunBefore/
// RunLimit fire exactly the events a sorted reference model says, in
// (at, band, key, seq) order; after every Run* return the heap holds exactly
// the model's pending events and Pending() == Scheduled − Executed − Canceled.
func TestPropertyEagerCancelMatchesModel(t *testing.T) {
	type ref struct {
		at   Time
		band uint8
		key  uint64
		seq  uint64
		h    *Event
	}
	precedes := func(a, b ref) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.band != b.band {
			return a.band < b.band
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	}
	f := func(ops []uint32) bool {
		k := NewKernel()
		var model []ref // pending events, sorted by precedes
		var fired, want []uint64
		var seq uint64
		expect := func(n int) {
			for _, r := range model[:n] {
				want = append(want, r.seq)
			}
			model = model[n:]
		}
		due := func(until Time, inclusive bool) int {
			n := 0
			for n < len(model) && (model[n].at < until || inclusive && model[n].at == until) {
				n++
			}
			return n
		}
		for _, op := range ops {
			arg := op >> 3
			switch op % 5 {
			case 0, 1: // schedule
				seq++
				r := ref{at: k.Now() + Time(arg%50), seq: seq}
				if op%5 == 0 {
					s := seq
					r.h = k.At(r.at, func() { fired = append(fired, s) }) // band 0, key 0
				} else {
					r.band, r.key = uint8(arg>>6)%2, uint64(arg>>7)%3
					r.h = k.AtCtxFn(r.at, r.band, r.key, seq, func(ctx any) { fired = append(fired, ctx.(uint64)) })
				}
				i := sort.Search(len(model), func(i int) bool { return precedes(r, model[i]) })
				model = append(model, ref{})
				copy(model[i+1:], model[i:])
				model[i] = r
			case 2: // cancel head, middle or tail, then cancel again (a no-op)
				if len(model) == 0 {
					continue
				}
				i := []int{0, len(model) / 2, len(model) - 1}[arg%3]
				h := model[i].h
				k.Cancel(h)
				k.Cancel(h)
				if h.Live() || !h.Canceled() {
					t.Logf("canceled event still live")
					return false
				}
				model = append(model[:i], model[i+1:]...)
			case 3:
				if k.Step() != (len(model) > 0) {
					t.Logf("Step disagrees with a model of %d pending", len(model))
					return false
				}
				if len(model) > 0 {
					expect(1)
				}
			case 4:
				until := k.Now() + Time(arg%40)
				switch arg / 40 % 3 {
				case 0:
					k.Run(until)
					expect(due(until, true))
				case 1:
					k.RunBefore(until)
					expect(due(until, false))
				case 2:
					limit := int(arg/120) % 4
					n := due(until, true)
					if n > limit {
						n = limit
					}
					if ran := k.RunLimit(until, limit); ran != n {
						t.Logf("RunLimit ran %d, model %d", ran, n)
						return false
					}
					expect(n)
				}
				st := k.Stats()
				if p := k.Pending(); p != len(model) || p != len(k.heap) ||
					uint64(p) != st.Scheduled-st.Executed-st.Canceled {
					t.Logf("Pending %d, heap %d, model %d, stats %+v", p, len(k.heap), len(model), st)
					return false
				}
				checkHeap(t, k)
			}
			if len(fired) != len(want) {
				t.Logf("fired %d events, model %d", len(fired), len(want))
				return false
			}
		}
		k.RunAll()
		expect(len(model))
		for i := range want {
			if fired[i] != want[i] {
				t.Logf("firing %d: seq %d, model seq %d", i, fired[i], want[i])
				return false
			}
		}
		return len(fired) == len(want) && k.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The TCP RTO idiom must keep the heap at its live size: with eager
// cancellation a timer re-armed on every ACK never leaves dead copies behind,
// and the pool absorbs every canceled object.
func TestCancelRearmKeepsHeapShallow(t *testing.T) {
	k := NewKernel()
	noop := func() {}
	var timer *Event
	for i := 0; i < 100_000; i++ {
		k.Cancel(timer)
		timer = k.Schedule(1000, noop)
		if i%64 == 0 {
			k.Schedule(10, noop)
			k.Step()
		}
	}
	k.Run(k.Now()) // publishes the gauges
	st := k.Stats()
	if st.HeapHighWater > 2 {
		t.Errorf("heap high-water %d after cancel/re-arm churn, want <= 2", st.HeapHighWater)
	}
	if st.PoolMisses > 2 {
		t.Errorf("%d pool misses, want <= 2: canceled events are not recycled", st.PoolMisses)
	}
}

// The kernel's innermost loop allocates nothing with pooling on: one event
// that reschedules itself each time it fires cycles a single object through
// the free list.
func TestPooledEventChurnAllocatesNothing(t *testing.T) {
	k := NewKernel()
	var step func()
	step = func() { k.Schedule(1, step) }
	k.Schedule(1, step)
	for i := 0; i < 64; i++ { // warm the free list past the cold-start misses
		k.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
		t.Errorf("%.2f allocs per pooled event, want 0", allocs)
	}
}

// The TCP RTO idiom (cancel the armed timer, arm a fresh one) allocates
// nothing with pooling on: the pool absorbs both fired and canceled objects.
func TestPooledCancelRearmAllocatesNothing(t *testing.T) {
	k := NewKernel()
	noop := func() {}
	var timer *Event
	var tick func()
	tick = func() {
		k.Cancel(timer)
		timer = k.Schedule(10, noop)
		k.Schedule(1, tick)
	}
	k.Schedule(1, tick)
	for i := 0; i < 64; i++ {
		k.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
		t.Errorf("%.2f allocs per cancel+re-arm, want 0", allocs)
	}
}

// A snapshot pins a pending event; canceling it afterwards takes it out of
// the heap, and Restore must put it back exactly once, at a valid index.
func TestRestoreResurrectsCanceledEventOnce(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(3, func() {})
	h := k.At(5, func() { fired++ })
	k.At(7, func() {})
	st := k.Snapshot(nil)
	k.Cancel(h)
	if h.Live() || k.Pending() != 2 {
		t.Fatalf("after cancel: live=%v pending=%d, want false 2", h.Live(), k.Pending())
	}
	k.Restore(st, nil)
	if !h.Live() || k.heap[h.index] != h || h.Canceled() {
		t.Fatalf("restore did not resurrect the canceled event in place")
	}
	if k.Pending() != 3 || len(k.heap) != 3 {
		t.Fatalf("pending %d, heap %d after restore, want 3", k.Pending(), len(k.heap))
	}
	checkHeap(t, k)
	k.RunAll()
	if fired != 1 {
		t.Fatalf("resurrected event fired %d times, want 1", fired)
	}
}

// A handle to an event scheduled after the snapshot is dead once Restore
// drops the event; canceling through it must not touch whatever now occupies
// the heap slot it used to hold.
func TestCancelDroppedHandleIsNoOp(t *testing.T) {
	k := NewKernel()
	kept := 0
	k.At(5, func() { kept++ })
	st := k.Snapshot(nil)
	dropped := k.At(1, func() { t.Error("dropped event fired") }) // heap root
	k.Restore(st, nil)
	if dropped.Live() {
		t.Fatal("dropped event still reads live")
	}
	k.Cancel(dropped)
	if k.Pending() != 1 || len(k.heap) != 1 || k.Stats().Canceled != 0 {
		t.Fatalf("cancel through a dropped handle changed the heap: pending %d, heap %d, %+v",
			k.Pending(), len(k.heap), k.Stats())
	}
	checkHeap(t, k)
	k.RunAll()
	if kept != 1 {
		t.Fatalf("kept event fired %d times, want 1", kept)
	}
}
