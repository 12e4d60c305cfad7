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

// config collects everything an Option can set on a System, plus the fixed
// tuning every run uses (in-package tests may override it).
type config struct {
	algo         SyncAlgo
	maxRollbacks uint64
	tracer       *obs.Tracer
	sampler      *obs.Sampler
	collectives  []collective.Params
	faults       *faults.Schedule

	// inboxCap is the per-LP inbox capacity of the conservative engines; the
	// Time Warp engine uses unbounded queues.
	inboxCap int
	// monitorPoll is the tick of the run monitor (see System.startMonitor)
	// while it feeds a multi-LP sampler.
	monitorPoll time.Duration
	// stallTimeout is how long the committed-time frontier may stand still
	// before the monitor dumps the flight recorder.
	stallTimeout time.Duration
	// gvtInterval is the wall-clock period of the Time Warp GVT computation
	// (Mattern rounds): shorter commits and fossil-collects more eagerly at
	// the cost of more control traffic.
	gvtInterval time.Duration
	// checkpointEvery is how many executed events separate consecutive Time
	// Warp checkpoints on each LP: fewer cheapen rollbacks (less
	// re-execution) but tax forward progress with snapshot copies.
	checkpointEvery int
	// window bounds Time Warp speculation to GVT + window of virtual time: a
	// small window approaches conservative lockstep, an enormous one lets
	// idle LPs race to the horizon and roll back on every arrival.
	window des.Time
}

// stallWindow is the stall check's fixed window: a run whose committed
// time stands still this long is a suspected deadlock.
const stallWindow = 10 * time.Second

func defaultConfig() config {
	return config{
		algo:            NullMessages,
		inboxCap:        1 << 15,
		monitorPoll:     time.Millisecond,
		stallTimeout:    stallWindow,
		gvtInterval:     200 * time.Microsecond,
		checkpointEvery: 256,
		window:          50 * des.Microsecond,
	}
}

// Option configures a System at construction (see NewSystem).
type Option func(*config)

// WithSyncAlgo selects the synchronization algorithm Run uses. The default
// is NullMessages.
func WithSyncAlgo(a SyncAlgo) Option { return func(c *config) { c.algo = a } }

// WithMaxRollbacks aborts a Time Warp run with an error once the total
// rollback count across LPs exceeds n — a safety valve against rollback
// thrashing on hostile topologies. Zero (the default) means unlimited.
func WithMaxRollbacks(n uint64) Option { return func(c *config) { c.maxRollbacks = n } }

// WithObs attaches an observability tracer: each LP gets a per-goroutine
// emission Buf (trace process = LP id), the synchronization machinery emits
// lifecycle events (EIT stalls, stragglers, rollbacks, checkpoints, GVT
// advances), and — when the tracer carries a flight recorder — each LP kernel
// feeds the recorder one record per executed event, and causality violations,
// a rollback-budget abort or a suspected deadlock dump the recorder
// automatically. The last is the stall check of Run's monitor goroutine
// (started for a flight recorder even on one LP): committed time standing
// still for 10 s of wall time. A nil tracer is ignored (tracing stays off).
func WithObs(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithSampler attaches an interval metrics sampler whose lifecycle Run
// manages: on several LPs Run's monitor goroutine feeds it the system's
// committed virtual time (GVT under Time Warp, the minimum kernel clock under
// the conservative engines) every millisecond of wall time (Sampler.Observe);
// on one LP the sampler is a recurring event on its kernel, sampling at exact
// sim-time boundaries. Either way it is closed — emitting the final row —
// when Run returns. Sampling committed time is what makes interval rows safe
// under optimism: a sampler event inside a speculative kernel would be rolled
// back and re-fired. A nil sampler is ignored.
func WithSampler(s *obs.Sampler) Option { return func(c *config) { c.sampler = s } }

// WithCollectives installs closed-loop collective-communication workloads
// (ring/tree all-reduce, all-to-all; see internal/collective) on the built
// network. Unlike the open-loop specs Build schedules, collective flows launch
// from TCP completion callbacks — but their complete flow catalog (src, dst,
// size, ID) is still known at build time, so Build folds it into the declared
// workload: block weights, channel quiescence and active_channels see exactly
// the flows that will run, keeping quiescence sound. The catalog comes from
// the same Params that drive the launches, so declared and actual workloads
// cannot diverge. Ranks are the first Hosts host IDs of the topology (all
// hosts when Hosts is 0).
func WithCollectives(ps ...collective.Params) Option {
	return func(c *config) { c.collectives = append(c.collectives, ps...) }
}

// WithFaults installs a fault schedule on the built network (Build hands it
// to Network.SetFaults): link and switch down state becomes visible to the
// netsim transmit/receive paths, routing turns failure-aware (deterministic
// ECMP rehash over the surviving set after a per-switch detection delay), and
// every channel stays live (no channel quiescence). Placement and its
// PartitionStats never read it. Fault state is a pure function of virtual
// time, so committed results stay bit-identical across sync algorithms and LP
// counts — the property TestDeterminismProperty checks with a nonempty
// schedule. A nil or empty schedule is the healthy default.
func WithFaults(s *faults.Schedule) Option { return func(c *config) { c.faults = s } }
