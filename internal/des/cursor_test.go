package des

import "testing"

// A reserved seq holds its place in the (at, band, key, seq) order: an event
// armed later with AtSeq fires between the events scheduled before and after
// the reservation, at the same timestamp.
func TestAtSeqKeepsReservedPlace(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(10, func() { order = append(order, "before") })
	seq := k.ReserveSeq()
	k.At(10, func() { order = append(order, "after") })
	k.At(5, func() { k.AtSeq(10, seq, func() { order = append(order, "reserved") }) })
	k.RunAll()
	if got := len(order); got != 3 || order[0] != "before" || order[1] != "reserved" || order[2] != "after" {
		t.Fatalf("order = %v, want [before reserved after]", order)
	}
}

func TestAtSeqRejectsUnreservedSeq(t *testing.T) {
	for _, seq := range []uint64{0, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AtSeq(seq %d) did not panic", seq)
				}
			}()
			NewKernel().AtSeq(10, seq, func() {})
		}()
	}
}

// Inside an event, Passed places (t, 0, 0, seq) against the running event's
// key: band-0 key-0 events scheduled before the reservation precede it, those
// scheduled after it and every later band follow it.
func TestPassedInsideEvents(t *testing.T) {
	k := NewKernel()
	var seq uint64
	check := func(name string, want bool) func() {
		return func() {
			if got := k.Passed(10, seq); got != want {
				t.Errorf("%s: Passed = %v, want %v", name, got, want)
			}
		}
	}
	k.At(5, check("earlier time", false))
	k.At(10, check("band 0, lower seq", false))
	k.AtCtxFn(10, 1, 0, nil, func(any) {
		check("band 1", true)()
		k.At(10, check("band 0 scheduled by band 1", true))
	})
	k.AtCtxFn(10, 0, 7, nil, func(any) { check("band 0, key 7", true)() })
	seq = k.ReserveSeq()
	k.At(10, check("band 0, higher seq", true))
	k.At(11, check("later time", true))
	k.RunAll()
}

// Between runs the cursor sits at the boundary: after Run(until) everything
// at until has passed, after RunBefore(until) nothing at until has, and
// RunLimit leaves it on the last event it ran.
func TestPassedAtRunBoundaries(t *testing.T) {
	k := NewKernel()
	seq := k.ReserveSeq()
	if k.Passed(0, seq) {
		t.Error("fresh kernel: Passed(0) = true")
	}
	k.RunBefore(10)
	if k.Passed(10, seq) {
		t.Error("after RunBefore(10): Passed(10) = true")
	}
	if !k.Passed(9, seq) {
		t.Error("after RunBefore(10): Passed(9) = false")
	}
	k.Run(10)
	if !k.Passed(10, seq) {
		t.Error("after Run(10): Passed(10) = false")
	}
	if k.Passed(11, seq) {
		t.Error("after Run(10): Passed(11) = true")
	}

	// A Run that stops on an event at exactly its horizon has still run
	// everything at the horizon.
	k.At(20, func() {})
	late := k.ReserveSeq()
	k.Run(20)
	if !k.Passed(20, late) {
		t.Error("after Run(20) ending on an event at 20: Passed(20) = false")
	}

	// RunAll drains the heap: the cursor passes everything at the last event.
	k.At(30, func() {})
	late = k.ReserveSeq()
	k.RunAll()
	if k.Now() != 30 || !k.Passed(30, late) {
		t.Errorf("after RunAll: Now = %v, Passed(30) = %v", k.Now(), k.Passed(30, late))
	}

	// RunLimit does not advance past its last event.
	k.At(40, func() {})
	mid := k.ReserveSeq()
	k.At(40, func() {})
	if ran := k.RunLimit(40, 1); ran != 1 {
		t.Fatalf("RunLimit ran %d events, want 1", ran)
	}
	if k.Passed(40, mid) {
		t.Error("after RunLimit stopped before the reserved seq: Passed = true")
	}
	k.RunLimit(40, 1)
	if !k.Passed(40, mid) {
		t.Error("after RunLimit ran past the reserved seq: Passed = false")
	}
}

// Restore puts the cursor back with the clock.
func TestPassedAcrossSnapshotRestore(t *testing.T) {
	k := NewKernel()
	seq := k.ReserveSeq()
	k.At(10, func() {})
	k.RunBefore(10)
	before := k.Snapshot(nil)
	k.Run(10)
	after := k.Snapshot(nil)
	if !k.Passed(10, seq) {
		t.Fatal("after Run(10): Passed(10) = false")
	}
	k.Restore(before, nil)
	if k.Passed(10, seq) {
		t.Error("restored to RunBefore(10): Passed(10) = true")
	}
	k.Restore(after, nil)
	if !k.Passed(10, seq) {
		t.Error("restored to Run(10): Passed(10) = false")
	}
	k.Restore(before, nil)
	k.Run(10)
	if !k.Passed(10, seq) {
		t.Error("replayed Run(10): Passed(10) = false")
	}
}
