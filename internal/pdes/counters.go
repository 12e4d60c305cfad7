package pdes

import (
	"sync/atomic"

	"approxsim/internal/metrics"
)

// Counter indexes the engine's counters: the Fig. 1 synchronization overhead
// and the Time Warp machinery. Each LP keeps one table of the per-LP counters
// (LP.count), and Stats sums them. A new counter is one line here, its name
// in counterNames, and its increment sites.
type Counter int

// The per-LP counters, in registry order. Each has a single writer (the LP's
// own goroutine, or Run's once the LP goroutines have finished) but is
// mutated atomically, so a mid-run Stats or CollectMetrics
// from another goroutine reads torn-free values. The Time Warp counters are
// zero under the conservative engines and are never rolled back: they account
// the optimistic machinery itself.
const (
	Nulls      Counter = iota // null messages sent (null-message engine)
	Barriers                  // synchronization windows executed (barrier engine)
	CrossPkts                 // packets shipped to other LPs
	Violations                // cross-LP packets stamped in the receiver's past: nonzero is a sync bug
	EITStalls                 // waits for a neighbor's promise, the paper's §2.2 lockstep overhead
	EITParks                  // EIT stalls that ended in a park; polling (LP.wait) absorbed the rest
	// ParkedArrivals counts cross-LP packets stamped beyond a conservative
	// run's horizon and parked for the next Run, which re-ingests them: not
	// lost. Each in-flight packet is counted once, at first park.
	ParkedArrivals
	PostHorizonDrops // cross-LP packets lost at Time Warp's terminal horizon (gvt.go)
	Rollbacks        // straggler- or anti-message-triggered state restores
	AntiMessages     // anti-messages sent to cancel speculative output
	RolledBackEvents // executed events undone by rollbacks: wasted speculative work
	Checkpoints      // state snapshots taken
	LazyCancelSaved  // rolled-back sends lazy cancellation proved identical on re-execution
	// QuiescentSends counts packets emitted on a channel marked quiescent
	// (see Network.SetFaults). Nonzero means a packet took a path the
	// analysis missed and the receiver may have run past it; it is treated
	// like Violations.
	QuiescentSends

	// Events (executed, summed over the LP kernels) and GVTAdvances (one per
	// System) complete Stats; no LP table holds them.
	Events
	GVTAdvances
	nStats

	nCounters = Events // the per-LP counters precede Events
)

var counterNames = [nStats]string{
	"null_messages", "barriers", "cross_lp_packets", "causality_violations",
	"eit_stalls", "eit_parks", "parked_arrivals", "post_horizon_drops",
	"rollbacks", "anti_messages", "rolled_back_events", "checkpoints",
	"lazy_cancel_saved", "quiescent_sends", "events", "gvt_advances",
}

// String returns the counter's metric name.
func (c Counter) String() string { return counterNames[c] }

// Stats holds the counters summed across LPs, indexed by Counter.
type Stats [nStats]uint64

// Sub returns s - base, counter by counter: the deltas attributable to one
// run when counters accumulate across forked runs on a shared system. Kernel
// event counts are restored with the checkpoint, so the base must be sampled
// AFTER Restore for the Events delta to be meaningful.
func (s Stats) Sub(base Stats) Stats {
	for c := range s {
		s[c] -= base[c]
	}
	return s
}

// Stats sums counters across LPs. Safe to call mid-run from any goroutine:
// every counter is read atomically, so values are torn-free (though a mid-run
// reading is only weakly consistent across counters). Events sums the
// kernels' published executed counts (des.Kernel.PublishedExecuted), which
// trail the live ones mid-run and are exact once Run returns.
func (s *System) Stats() Stats {
	var out Stats
	for _, lp := range s.lps {
		out[Events] += lp.kernel.PublishedExecuted()
		for c := range nCounters {
			out[c] += lp.count[c].Load()
		}
	}
	out[GVTAdvances] = atomic.LoadUint64(&s.gvtAdvances)
	return out
}

// CollectMetrics implements metrics.Collector: counters sum across LPs,
// gauges report the worst LP. Safe to call mid-run (atomic reads).
func (s *System) CollectMetrics(e *metrics.Emitter) {
	e.Gauge("lps", int64(len(s.lps)))
	e.Counter(GVTAdvances.String(), atomic.LoadUint64(&s.gvtAdvances))
	for _, lp := range s.lps {
		for c := range nCounters {
			e.Counter(c.String(), lp.count[c].Load())
		}
		e.Gauge("inbox_high_water", atomic.LoadInt64(&lp.InboxHighWater))
		e.Gauge("max_horizon_ns", atomic.LoadInt64((*int64)(&lp.MaxHorizon)))
	}
}
