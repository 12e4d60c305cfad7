package obs

import (
	"testing"

	"approxsim/internal/des"
)

// fakeRun is a source whose clock and event count the test sets by hand.
type fakeRun struct {
	t des.Time
	n uint64
}

func (f *fakeRun) clock() des.Time { return f.t }
func (f *fakeRun) events() uint64  { return f.n }

// TestProgressMonotoneCommitted: while a source is attached, reads go to it —
// committed time clamped monotone against a stale reading, events as read.
func TestProgressMonotoneCommitted(t *testing.T) {
	var p Progress
	if p.Committed() != 0 || p.Events() != 0 {
		t.Fatal("zero Progress reads non-zero before a source is attached")
	}
	run := &fakeRun{t: 5 * des.Millisecond, n: 100}
	p.Attach(run.clock, run.events)
	if p.Committed() != 5*des.Millisecond || p.Events() != 100 {
		t.Errorf("live read = %v/%d, want 5ms/100", p.Committed(), p.Events())
	}
	run.t, run.n = 3*des.Millisecond, 120 // a stale clock reading must not regress
	if got := p.Committed(); got != 5*des.Millisecond {
		t.Errorf("committed regressed to %v", got)
	}
	if got := p.Events(); got != 120 {
		t.Errorf("events = %d, want latest (120)", got)
	}
	run.t = 7 * des.Millisecond
	if got := p.Committed(); got != 7*des.Millisecond {
		t.Errorf("committed = %v, want the advanced clock (7ms)", got)
	}
}

// TestProgressFinishFreezes: after Finish the reads return the final reading
// and no longer touch the source, whatever it goes on to report — the next
// fork on a pooled system rewinds the clock and the event count.
func TestProgressFinishFreezes(t *testing.T) {
	var p Progress
	run := &fakeRun{t: 4 * des.Millisecond, n: 50}
	p.Attach(run.clock, run.events)
	p.Finish(10*des.Millisecond, 200)
	run.t, run.n = 12*des.Millisecond, 7
	if p.Committed() != 10*des.Millisecond || p.Events() != 200 {
		t.Errorf("after Finish: %v/%d, want 10ms/200", p.Committed(), p.Events())
	}
}

// TestProgressDiscardsReadRacingFinish: a reader whose source read straddles
// Finish — the owner froze the gauges and the system moved on to another run
// while the read was in flight — returns the frozen values, not its reading.
func TestProgressDiscardsReadRacingFinish(t *testing.T) {
	var p Progress
	next := func() des.Time {
		p.Finish(10*des.Millisecond, 200)
		return 99 * des.Millisecond // the next run's clock
	}
	p.Attach(next, func() uint64 { p.Finish(10*des.Millisecond, 200); return 9999 })
	if got := p.Committed(); got != 10*des.Millisecond {
		t.Errorf("committed = %v, want the frozen 10ms", got)
	}
	p.Attach(next, func() uint64 { p.Finish(10*des.Millisecond, 200); return 9999 })
	if got := p.Events(); got != 200 {
		t.Errorf("events = %d, want the frozen 200", got)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Attach(func() des.Time { return 1 }, func() uint64 { return 1 })
	p.Finish(1, 1)
	if p.Committed() != 0 || p.Events() != 0 {
		t.Error("nil Progress not a zero no-op")
	}
}
