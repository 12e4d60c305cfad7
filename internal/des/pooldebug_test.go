//go:build pooldebug

package des

import (
	"strings"
	"testing"
)

// These tests exist only in the pooldebug build: they assert that the
// poisoning machinery actually turns stale-handle abuse into loud panics.
// Release-build behavior (silent no-ops) is covered by the untagged suite.

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("expected panic containing %q, got %v", substr, r)
		}
	}()
	f()
}

// A fired event's object is poisoned on recycle: implausible timestamp, and a
// closure that panics if the heap somehow runs it again.
func TestPoolDebugPoisonsRecycledEvents(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	if !e.pooled {
		t.Fatal("fired event was not recycled")
	}
	if e.at != poisonTime {
		t.Fatalf("recycled event timestamp = %d, want poison %d", e.at, poisonTime)
	}
	mustPanic(t, "recycled event fired", e.fn)
}

// Cancel through a recycled handle stays a no-op even in the pooldebug build:
// the contract says canceling after the event fired is always legal, however
// late. Only *use* of the recycled object (pop, snapshot, fire) is hostile.
func TestPoolDebugStaleCancelIsNoOp(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	k.Cancel(e) // must not panic, must not mark the pooled object canceled
	fired := false
	e2 := k.Schedule(5, func() { fired = true })
	if e2 != e {
		t.Fatal("free list did not reuse the recycled object")
	}
	k.RunAll()
	if !fired {
		t.Fatal("reincarnated event did not fire — stale Cancel leaked into the reuse")
	}
}

// checkNotPooled is the assertion kernel entry points lean on; make sure it
// actually fires for a pooled object and stays quiet otherwise.
func TestPoolDebugCheckNotPooled(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	checkNotPooled(e, "test") // live event: fine
	k.RunAll()
	mustPanic(t, "recycled event", func() { checkNotPooled(e, "test") })
	checkNotPooled(nil, "test") // nil handle: fine
}

// A stale handle that re-enters the heap is the bug class poisoning exists
// for: the poisoned timestamp makes schedule's past-schedule check reject the
// replayed time, and a poisoned fn fires loudly. Simulate the closest legal
// approximation — manually pushing the recycled object back into the heap —
// and verify the pop-side assertion catches it.
func TestPoolDebugPopAssertsOnPooledEvent(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	k.heap.push(e) // corruption: a pooled object reachable from the heap
	mustPanic(t, "pop on a recycled event", func() { k.Step() })
}

// An AtSeq event comes from the free list and goes back to it like any other:
// it reuses a recycled object and is poisoned once it fires.
func TestPoolDebugAtSeqRecycles(t *testing.T) {
	k := NewKernel()
	first := k.Schedule(10, func() {})
	k.RunAll()
	fired := false
	e := k.AtSeq(20, k.ReserveSeq(), func() { fired = true })
	if e != first {
		t.Fatal("AtSeq did not reuse the recycled event object")
	}
	k.RunAll()
	if !fired {
		t.Fatal("AtSeq event did not fire")
	}
	if !e.pooled || e.at != poisonTime {
		t.Fatalf("fired AtSeq event not recycled: pooled=%v at=%d", e.pooled, e.at)
	}
	mustPanic(t, "recycled event fired", e.fn)
}
