package obs

import (
	"sync/atomic"

	"approxsim/internal/des"
)

// Progress is a per-run gauge pair any goroutine may read: the committed
// virtual-time frontier (GVT under Time Warp, the minimum kernel clock under
// the conservative engines) and the executed-event count. It is the
// run-granular counterpart of the Sampler — where the sampler streams
// interval rows to a writer, Progress answers "how far along is run X?"
// cheaply and often (the scenario server's GET /v1/runs/{id} reads it live).
//
// Progress is a view, not a poller: while a run has a source attached,
// Committed and Events read the live system on the caller's goroutine; once
// the run finishes they return the frozen final reading. A reader re-checks
// the source after reading it and discards the reading if the run finished
// meanwhile, so a pooled System that goes on to run the next fork can never
// leak that fork's clock into this run's gauges — provided the owner calls
// Finish before anything else may run the system.
//
// Committed time is clamped monotone across reads. The zero Progress is
// ready to use; a nil *Progress is a safe no-op receiver, mirroring Sampler.
type Progress struct {
	src       atomic.Pointer[progressSource]
	committed atomic.Int64 // des.Time, monotone
	events    atomic.Uint64
}

type progressSource struct {
	clock  func() des.Time
	events func() uint64
}

// Attach makes clock and events the live source of p until Finish. Both must
// be safe from any goroutine (System.CommittedTime and System.Stats are).
func (p *Progress) Attach(clock func() des.Time, events func() uint64) {
	if p == nil {
		return
	}
	p.src.Store(&progressSource{clock, events})
}

// Finish freezes p at a final reading and detaches its source; readers see
// the frozen values from then on.
func (p *Progress) Finish(committed des.Time, events uint64) {
	if p == nil {
		return
	}
	p.clamp(committed)
	p.events.Store(events)
	p.src.Store(nil)
}

// clamp raises the committed gauge to t (stale readings lose) and returns
// the gauge.
func (p *Progress) clamp(t des.Time) des.Time {
	for {
		cur := p.committed.Load()
		if int64(t) <= cur || p.committed.CompareAndSwap(cur, int64(t)) {
			return des.Time(max(cur, int64(t)))
		}
	}
}

// Committed returns the committed virtual time (0 on nil).
func (p *Progress) Committed() des.Time {
	if p == nil {
		return 0
	}
	if src := p.src.Load(); src != nil {
		if t := src.clock(); p.src.Load() == src {
			return p.clamp(t)
		}
	}
	return des.Time(p.committed.Load())
}

// Events returns the executed-event count (0 on nil).
func (p *Progress) Events() uint64 {
	if p == nil {
		return 0
	}
	if src := p.src.Load(); src != nil {
		if n := src.events(); p.src.Load() == src {
			return n
		}
	}
	return p.events.Load()
}
