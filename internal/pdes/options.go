package pdes

import (
	"fmt"
	"time"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/obs"
)

// SyncAlgo selects the synchronization algorithm a System runs under.
type SyncAlgo int

// Synchronization algorithms for parallel runs.
const (
	// NullMessages is conservative Chandy-Misra-Bryant (OMNeT++'s default
	// PDES mode): LPs exchange timestamp promises and never execute past
	// their earliest input time.
	NullMessages SyncAlgo = iota
	// Barrier is conservative time-stepped lockstep in windows of the
	// minimum lookahead.
	Barrier
	// TimeWarp is optimistic synchronization (Jefferson 1985): LPs execute
	// speculatively past their input guarantees, checkpoint their state, and
	// roll back — cancelling side effects with anti-messages — when a
	// straggler arrives in their past. Commitment is governed by a periodic
	// Mattern-style GVT computation.
	TimeWarp
)

// String returns the flag-friendly name of the algorithm.
func (a SyncAlgo) String() string {
	switch a {
	case NullMessages:
		return "nullmsg"
	case Barrier:
		return "barrier"
	case TimeWarp:
		return "timewarp"
	default:
		return fmt.Sprintf("SyncAlgo(%d)", int(a))
	}
}

// ParseSyncAlgo maps a command-line name to a SyncAlgo. "null" is accepted
// as a legacy alias for "nullmsg".
func ParseSyncAlgo(s string) (SyncAlgo, error) {
	switch s {
	case "nullmsg", "null":
		return NullMessages, nil
	case "barrier":
		return Barrier, nil
	case "timewarp":
		return TimeWarp, nil
	default:
		return 0, fmt.Errorf("pdes: unknown sync algorithm %q (want nullmsg, barrier, or timewarp)", s)
	}
}

// config collects everything an Option can set on a System.
type config struct {
	algo            SyncAlgo
	inboxCap        int
	defLookahead    des.Time
	gvtInterval     time.Duration
	maxRollbacks    uint64
	checkpointEvery int
	window          des.Time
	tracer          *obs.Tracer
	sampler         *obs.Sampler
	samplerPoll     time.Duration
	stallTimeout    time.Duration
	pool            bool
	lazyCancel      bool
	adaptWindow     bool
	windowMin       des.Time
	windowMax       des.Time
	partitioner     Partitioner
	collectives     []collective.Params
	faults          *faults.Schedule
	dynFaults       bool
}

func defaultConfig() config {
	return config{
		algo:            NullMessages,
		inboxCap:        1 << 15,
		gvtInterval:     200 * time.Microsecond,
		checkpointEvery: 256,
		window:          50 * des.Microsecond,
		pool:            true,
		lazyCancel:      true,
	}
}

// Option configures a System at construction (see NewSystem).
type Option func(*config)

// WithSyncAlgo selects the synchronization algorithm Run uses. The default
// is NullMessages.
func WithSyncAlgo(a SyncAlgo) Option { return func(c *config) { c.algo = a } }

// WithInboxCap sets the per-LP inbox capacity for the conservative engines.
// Correctness does not depend on the capacity — cross-LP sends drain the
// sender's own inbox while waiting (see LP.send) — but small inboxes increase
// synchronization stalls; the deadlock regression tests use capacity 1 to
// exercise the worst case. The Time Warp engine uses unbounded inboxes and
// ignores this setting.
func WithInboxCap(n int) Option {
	return func(c *config) {
		if n < 1 {
			panic("pdes: inbox capacity must be at least 1")
		}
		c.inboxCap = n
	}
}

// WithLookahead sets the default lookahead applied to cross-LP Connect calls
// that pass a non-positive lookahead. Zero (the default) keeps Connect's
// strict behavior: callers must supply a positive lookahead per link.
func WithLookahead(d des.Time) Option { return func(c *config) { c.defLookahead = d } }

// WithGVTInterval sets the wall-clock period of the Time Warp GVT
// computation (Mattern rounds). Shorter intervals commit and fossil-collect
// more eagerly at the cost of more control traffic. Default 200µs.
func WithGVTInterval(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.gvtInterval = d
		}
	}
}

// WithMaxRollbacks aborts a Time Warp run with an error once the total
// rollback count across LPs exceeds n — a safety valve against rollback
// thrashing on hostile topologies. Zero (the default) means unlimited.
func WithMaxRollbacks(n uint64) Option { return func(c *config) { c.maxRollbacks = n } }

// WithCheckpointEvery sets how many executed events separate consecutive
// Time Warp state checkpoints on each LP. Smaller values cheapen rollbacks
// (less re-execution) but tax forward progress with snapshot copies.
// Default 256.
func WithCheckpointEvery(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.checkpointEvery = n
		}
	}
}

// WithTimeWindow bounds Time Warp speculation to GVT + window of virtual
// time. A small window approaches conservative lockstep; an enormous one
// lets idle LPs race to the horizon and roll back on every arrival.
// Default 50µs.
func WithTimeWindow(w des.Time) Option {
	return func(c *config) {
		if w > 0 {
			c.window = w
		}
	}
}

// WithEventPool toggles the per-LP kernel event free list (see
// des.Kernel.SetPooling). On by default; committed results are bit-identical
// either way — the toggle exists for benchmarking the pool's effect and for
// the determinism property tests that prove that claim.
func WithEventPool(on bool) Option { return func(c *config) { c.pool = on } }

// WithLazyCancellation selects how Time Warp rollbacks cancel speculative
// output. On (the default), cancelled sends are held back and compared
// against the re-execution: a send the LP regenerates identically needs no
// anti-message at all, which spares the receiver a matching rollback cascade.
// Off is classic aggressive cancellation (every rolled-back send is
// anti-messaged immediately). Committed results are bit-identical either way.
func WithLazyCancellation(on bool) Option { return func(c *config) { c.lazyCancel = on } }

// WithAdaptiveWindow lets the GVT coordinator steer the Time Warp speculation
// window between min and max from the observed rollback rate: rounds that
// rolled back halve the window (speculation is outrunning the inputs), quiet
// rounds grow it by a quarter. The window only bounds how far LPs may execute
// beyond GVT — it never affects committed results — so runs stay
// bit-reproducible while wasted speculative work shrinks on hostile
// topologies. The starting point is WithTimeWindow's value clamped to
// [min, max].
func WithAdaptiveWindow(min, max des.Time) Option {
	return func(c *config) {
		if min <= 0 || max < min {
			panic("pdes: adaptive window needs 0 < min <= max")
		}
		c.adaptWindow = true
		c.windowMin, c.windowMax = min, max
	}
}

// WithObs attaches an observability tracer: each LP gets a per-goroutine
// emission Buf (trace process = LP id), the synchronization machinery emits
// lifecycle events (EIT stalls, stragglers, rollbacks, checkpoints, GVT
// advances), and — when the tracer carries a flight recorder — each LP kernel
// feeds the recorder one record per executed event, and causality violations
// or a rollback-budget abort dump the recorder automatically. A nil tracer is
// ignored (tracing stays off).
func WithObs(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithSampler attaches an interval metrics sampler whose lifecycle Run
// manages: a wall-clock poller over the system's committed virtual time (GVT
// under Time Warp, the minimum kernel clock under the conservative engines)
// starts when Run starts and is closed — emitting the final row — when Run
// returns. Polling committed time is what makes interval rows safe under
// optimism: a sampler event inside a speculative kernel would be rolled back
// and re-fired. A nil sampler is ignored.
func WithSampler(s *obs.Sampler) Option { return func(c *config) { c.sampler = s } }

// WithSamplerPoll sets the wall-clock poll period of the Run-managed sampler
// (see WithSampler). Non-positive keeps the sampler's default (1ms).
func WithSamplerPoll(d time.Duration) Option { return func(c *config) { c.samplerPoll = d } }

// WithPartitioner selects how Build places fabric switches onto LPs (see
// Partitioner). The default is ContiguousPartitioner, which reproduces the
// historical placement exactly. Committed simulation results are
// bit-identical across partitioners — the choice affects performance
// (cross-LP traffic, null-message volume), never outcomes.
func WithPartitioner(p Partitioner) Option { return func(c *config) { c.partitioner = p } }

// WithCollectives installs closed-loop collective-communication workloads
// (ring/tree all-reduce, all-to-all; see internal/collective) on the built
// network. Unlike the open-loop specs Build schedules, collective flows launch
// from TCP completion callbacks — but their complete flow catalog (src, dst,
// size, ID) is still known at build time, so Build folds it into the declared
// workload: partition-graph weighting and channel quiescence see exactly the
// flows that will run, keeping both analyses sound. The catalog comes from
// the same Params that drive the launches, so declared and actual workloads
// cannot diverge. Ranks are the first Hosts host IDs of the topology (all
// hosts when Hosts is 0).
func WithCollectives(ps ...collective.Params) Option {
	return func(c *config) { c.collectives = append(c.collectives, ps...) }
}

// WithFaults installs a fault schedule on the built network: link and switch
// down state becomes visible to the netsim transmit/receive paths, routing
// turns failure-aware (deterministic ECMP rehash over the surviving set after
// a per-switch detection delay), the partition graph is weighted by the union
// of pre- and post-failure routes, and channel quiescence is skipped (see
// System.LimitChannels). Fault state is a pure function of virtual time, so
// committed results stay bit-identical across sync algorithms, partitioners,
// and LP counts — the property TestDeterminismProperty checks with a nonempty
// schedule. A nil or empty schedule is the healthy default.
func WithFaults(s *faults.Schedule) Option { return func(c *config) { c.faults = s } }

// WithDynamicFaults builds the network so its fault schedule can be swapped
// between runs (Network.SetFaults) instead of being baked in at
// construction. Every link and switch gets a down-state closure that reads
// the CURRENT schedule — an empty schedule costs one nil-check per transmit —
// which is what lets a checkpointed baseline (System.Checkpoint) be restored
// and re-run under a different fault schedule without rebuilding. The price:
// channel quiescence is never applied (the active-channel set depends on the
// schedule) and fault trace instants are not scheduled (they would be baked
// into the checkpoint). Committed flow results are unaffected by either.
func WithDynamicFaults() Option { return func(c *config) { c.dynFaults = true } }

// WithStallTimeout arms the deadlock watchdog: if the committed-time
// frontier makes no progress for d of wall-clock time while Run is active,
// the flight recorder attached via WithObs is dumped once with reason
// "deadlock_suspected". Detection only — the run is not interrupted, since a
// stall this long is either a wedge the caller will kill (and then wants the
// dump for) or a grossly undersized lookahead worth the same evidence. Zero
// (the default) disables the watchdog.
func WithStallTimeout(d time.Duration) Option { return func(c *config) { c.stallTimeout = d } }
