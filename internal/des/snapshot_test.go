package des

import "testing"

func TestSnapshotRestoreReplaysIdentically(t *testing.T) {
	k := NewKernel()
	var log []Time
	var tick func()
	tick = func() {
		log = append(log, k.Now())
		if k.Now() < 10 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(0, tick)
	k.Run(4)
	st := k.Snapshot(nil)
	savedLog := append([]Time(nil), log...)

	k.Run(10)
	first := append([]Time(nil), log...)

	// Roll back and replay; the replay must produce the same execution.
	k.Restore(st, nil)
	log = append([]Time(nil), savedLog...)
	if k.Now() != st.Now() {
		t.Fatalf("restored clock %v, snapshot at %v", k.Now(), st.Now())
	}
	k.Run(10)
	if len(log) != len(first) {
		t.Fatalf("replay executed %d events, first run %d", len(log), len(first))
	}
	for i := range log {
		if log[i] != first[i] {
			t.Errorf("replay event %d at %v, first run at %v", i, log[i], first[i])
		}
	}
}

func TestSnapshotRestoreKeepsHandlesValid(t *testing.T) {
	k := NewKernel()
	fired := 0
	h := k.At(5, func() { fired++ })
	st := k.Snapshot(nil)

	// Cancel after the snapshot; restore must re-arm the event through the
	// SAME handle, so a later cancel through it works too.
	k.Cancel(h)
	k.Run(10)
	if fired != 0 {
		t.Fatal("canceled event fired")
	}
	k.Restore(st, nil)
	if !h.Live() {
		t.Fatal("restore did not re-arm the original event handle")
	}
	k.Cancel(h)
	k.Run(10)
	if fired != 0 {
		t.Fatal("event fired despite cancel through the restored handle")
	}

	// Restore the same checkpoint a second time (cascade pattern) and let it
	// run: the event must fire exactly once.
	k.Restore(st, nil)
	k.Run(10)
	if fired != 1 {
		t.Fatalf("event fired %d times after second restore, want 1", fired)
	}
}

func TestSnapshotDropsPostSnapshotEvents(t *testing.T) {
	k := NewKernel()
	st := k.Snapshot(nil)
	fired := false
	k.At(1, func() { fired = true })
	k.Restore(st, nil)
	if k.Pending() != 0 {
		t.Fatalf("restored kernel has %d pending events, want 0", k.Pending())
	}
	k.Run(10)
	if fired {
		t.Fatal("event scheduled after the snapshot survived the restore")
	}
}

type ctxBox struct{ n int }

func TestSnapshotContextRoundTrip(t *testing.T) {
	k := NewKernel()
	box := &ctxBox{n: 1}
	k.AtCtxFn(3, 0, 0, box, func(ctx any) { ctx.(*ctxBox).n *= 10 })
	st := k.Snapshot(func(ctx any) any { return ctx.(*ctxBox).n })
	k.Run(10)
	if box.n != 10 {
		t.Fatalf("box.n = %d after run, want 10", box.n)
	}
	box.n = 99 // corrupt; restore must write the saved value back
	k.Restore(st, func(ctx, blob any) { ctx.(*ctxBox).n = blob.(int) })
	if box.n != 1 {
		t.Fatalf("box.n = %d after restore, want 1", box.n)
	}
	k.Run(10)
	if box.n != 10 {
		t.Fatalf("box.n = %d after replay, want 10", box.n)
	}
}

func TestRunLimitDoesNotIdleAdvance(t *testing.T) {
	k := NewKernel()
	k.At(2, func() {})
	k.At(4, func() {})
	k.At(9, func() {})
	if ran := k.RunLimit(5, 100); ran != 2 {
		t.Fatalf("RunLimit(5) executed %d events, want 2", ran)
	}
	// Run would advance to 5; RunLimit must stop at the last executed event.
	if k.Now() != 4 {
		t.Fatalf("clock at %v after RunLimit(5), want 4", k.Now())
	}
	if ran := k.RunLimit(10, 100); ran != 1 {
		t.Fatalf("second RunLimit executed %d events, want 1", ran)
	}
	if k.Now() != 9 {
		t.Fatalf("clock at %v, want 9", k.Now())
	}
}

func TestRunLimitHonorsMax(t *testing.T) {
	k := NewKernel()
	for i := 1; i <= 5; i++ {
		k.At(Time(i), func() {})
	}
	if ran := k.RunLimit(100, 3); ran != 3 {
		t.Fatalf("RunLimit(max=3) executed %d events, want 3", ran)
	}
	if k.Now() != 3 {
		t.Fatalf("clock at %v after capped batch, want 3", k.Now())
	}
}
