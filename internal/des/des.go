// Package des implements the discrete-event simulation kernel underlying
// every simulator in this repository (the OMNeT++ role in the paper).
//
// Network behavior is represented as a series of events in a temporally
// ordered queue. The kernel owns virtual time, a binary-heap event queue with
// deterministic tie-breaking, and counters that the evaluation harness uses
// to report how much work a simulation performed (the paper's speedup claims
// are fundamentally claims about event counts).
//
// Events are closures. Components schedule work with Schedule/At and may
// cancel a pending event through its handle. Cancellation is eager: every
// event records its heap index, so Cancel removes it in O(log n) and recycles
// the object at once, and the heap holds only live events. That matters for
// the dominant cancel pattern — TCP retransmission timers re-armed on every
// ACK — because a timer longer than the run would otherwise never reach the
// top of the heap, and every canceled copy would deepen every sift.
package des

import (
	"fmt"
	"math"
	"sync/atomic"

	"approxsim/internal/metrics"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Common durations, expressed in Time units for direct arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, for logs and traces.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts floating-point seconds to a virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Event is a handle to a scheduled closure. The zero value is meaningless;
// handles are produced by Kernel.Schedule and Kernel.At.
type Event struct {
	at   Time
	band uint8
	key  uint64
	seq  uint64

	// Exactly one of fn and fnCtx is set while the event is pending. fnCtx is
	// the AtCtxFn form: a handler its owner binds once, which receives ctx
	// when the event fires, so scheduling it allocates no closure.
	fn    func()
	fnCtx func(any)

	// ctx is an optional caller-supplied value attached by AtCtxFn. The
	// kernel only hands it to fnCtx; Snapshot/Restore pass it to the caller's
	// state callbacks so mutable objects the event refers to (in practice:
	// in-flight packets) can be checkpointed alongside the event.
	ctx any

	// index is the event's position in the kernel heap, or -1 when it is not
	// in the heap: fired, canceled, pooled, or dropped by Restore.
	index    int
	canceled bool

	// Pooling state (see pool.go). gen counts reincarnations: it is bumped
	// every time the object is recycled, so a holder that recorded Gen() at
	// schedule time can detect that its event is gone and the object now
	// belongs to someone else. snapped pins the object out of the pool
	// forever: a KernelState holds it and Restore will write fields back into
	// it. pooled marks objects currently on the free list.
	gen     uint64
	snapped bool
	pooled  bool
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Live reports whether the event is still pending: neither fired nor
// canceled. Meaningful only for the event's original incarnation: a holder
// that may outlive the event must compare Gen() first (a recycled-and-reused
// object can be Live again on someone else's behalf).
func (e *Event) Live() bool { return e.index >= 0 }

// Gen returns the event object's pool incarnation. Holders that keep a handle
// past the event's execution or cancellation (the Time Warp processed log)
// record Gen at schedule time; a later mismatch means the object was recycled
// — the handle must not be used for Cancel.
func (e *Event) Gen() uint64 { return e.gen }

// before is the heap order (time, band, key, seq). seq is a strictly
// increasing schedule counter, so two events at the same virtual time in the
// same band fire in the order they were scheduled — the property that makes
// runs reproducible. The band (see AtCtxFn) separates event classes whose
// relative schedule order is NOT reproducible across execution strategies:
// the PDES engines schedule cross-LP arrivals in a later band so a message
// ingested early (null-message drains) or late (barrier windows, Time Warp
// re-ingestion) lands at the same position among same-timestamp events either
// way, and all synchronization algorithms commit identical event orders.
//
// The key (see AtCtxFn) breaks ties WITHIN a band by caller-chosen content
// instead of schedule order, for event classes where even the schedule order
// within one band is not reproducible: same-timestamp network arrivals from
// two different sender LPs reach the inbox in a racy interleaving, so the
// PDES engines key each arrival by its transmitting device — a value derived
// from simulation content, identical no matter which LP the transmitter lives
// on or when its message was ingested. Plain At schedules with key 0.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.band != o.band {
		return e.band < o.band
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap in before order that keeps every member's
// index field equal to its position, so any member can be removed in
// O(log n).
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes the event at position i out of the heap and returns it with
// index -1. pop is remove(0).
func (h *eventHeap) remove(i int) *Event {
	old := *h
	n := len(old) - 1
	e := old[i]
	old[i] = old[n]
	old[n] = nil
	*h = old[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	e.index = -1
	return e
}

func (h *eventHeap) pop() *Event { return h.remove(0) }

// up moves the event at i toward the root until its parent precedes it.
func (h eventHeap) up(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down moves the event at i toward the leaves until it precedes both
// children, and reports whether it moved.
func (h eventHeap) down(i int) bool {
	e := h[i]
	start, n := i, len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = e
	e.index = i
	return i > start
}

// Hook observes kernel scheduler activity from the hot path. Implementations
// live outside this package (internal/obs); the kernel only pays a nil check
// per event when no hook is installed, so tracing is near-free when off.
// OnEvent is invoked by the kernel's own goroutine immediately before each
// event executes.
type Hook interface {
	OnEvent(at Time, seq uint64)
}

// publishEvery is how many executed events may pass between publications of
// the kernel's clock and executed count to their atomic mirrors, and between
// safepoints (see Kernel.publish).
const publishEvery = 256

// Kernel is a single-threaded discrete-event scheduler: exactly one goroutine
// may schedule, cancel, and run events. The clock, the order cursor and every
// counter are plain fields of that goroutine, so the event path pays no
// locked instruction. Another goroutine reads them in one of two ways:
//
//   - PublishedNow and PublishedExecuted read atomic copies of the clock and
//     the executed count. They trail the live values by at most publishEvery
//     events mid-run and are exact whenever Run, RunBefore, RunLimit or
//     Restore returns. Committed-time readers and progress gauges use them.
//   - Everything else (Now, Passed, Stats, Pending, CollectMetrics) is read by
//     the owner, when the kernel is stopped, or at a safepoint: every
//     publishEvery events, between two events, the kernel calls the hook set
//     with SetSafepoint, where its owner may hand the kernel to a reader for
//     a while (the pdes engine's metrics gate does).
//
// The pdes package builds multi-LP simulations out of one Kernel per logical
// process.
type Kernel struct {
	now    Time
	heap   eventHeap
	seq    uint64
	nexec  uint64 // events executed
	nsched uint64 // events scheduled
	ncanc  uint64 // events canceled
	hook   Hook

	// cur is the seq half of the order cursor (see Passed): at time now, every
	// band-0, key-0 event with a seq below cur has run.
	cur uint64

	// Event free list (pool.go). Owned by the kernel goroutine like the heap.
	free []*Event

	heapHW int    // deepest the heap has been
	phit   uint64 // allocations served from the free list
	pmiss  uint64 // allocations that hit the Go allocator

	// pub holds the atomic copies of now and nexec (see publish), and
	// safepoint the hook the kernel calls every publishEvery events.
	pub struct {
		now   atomic.Int64
		nexec atomic.Uint64
	}
	safepoint func()
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{heap: make(eventHeap, 0, 1024)}
}

// SetHook installs (or, with nil, removes) the scheduler hook. Must be called
// from the kernel's owning goroutine while it is not running events.
func (k *Kernel) SetHook(h Hook) { k.hook = h }

// SetSafepoint installs (or, with nil, removes) the safepoint hook: the kernel
// calls fn on its own goroutine every publishEvery executed events, after an
// event has finished and before the next one starts. Must be called while the
// kernel is not running events.
func (k *Kernel) SetSafepoint(fn func()) { k.safepoint = fn }

// Now returns the current virtual time. Owner goroutine, stopped kernel or
// safepoint only; other goroutines read PublishedNow.
func (k *Kernel) Now() Time { return k.now }

// PublishedNow returns the clock as last published: at most publishEvery
// events behind Now mid-run, and equal to it once Run, RunBefore, RunLimit or
// Restore has returned. Safe to call from any goroutine.
func (k *Kernel) PublishedNow() Time { return Time(k.pub.now.Load()) }

// PublishedExecuted returns the executed-event count as last published, with
// the same staleness as PublishedNow. Safe to call from any goroutine.
func (k *Kernel) PublishedExecuted() uint64 { return k.pub.nexec.Load() }

// publish copies the clock and the executed count to their atomic mirrors.
// It is kept out of line so the stores stay off Step's own code.
//
//go:noinline
func (k *Kernel) publish() {
	k.pub.now.Store(int64(k.now))
	k.pub.nexec.Store(k.nexec)
}

// Schedule runs fn after delay virtual time. A negative delay panics: the
// simulated world cannot schedule into its own past.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be before Now. It
// schedules in band 0 with key 0.
func (k *Kernel) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("des: nil event function")
	}
	return k.schedule(t, 0, 0, k.ReserveSeq(), nil, fn, nil)
}

// AtCtxFn runs fn(ctx) at absolute virtual time t. A component that
// schedules the same kind of event over and over — a port's packet arrivals
// — binds fn once and passes the varying object as ctx, so scheduling
// allocates nothing. Snapshot/Restore hand ctx to the caller's state
// callbacks, which is how the optimistic PDES engine checkpoints the
// contents of packets in flight.
//
// band and key order events at equal timestamps: lower bands fire first,
// then lower keys, and seq breaks ties only within a (band, key). Callers
// whose scheduling MOMENT is not deterministic — cross-LP message
// ingestion, whose timing differs between synchronization algorithms — use
// a later band so the committed event order depends only on simulation
// content, never on when the event object happened to be created. Callers
// whose scheduling ORDER within a band is not reproducible either —
// cross-LP arrivals from different senders are ingested in a racy
// interleaving — derive the key from simulation content (the transmitting
// device), so the committed order of same-timestamp arrivals is independent
// of both the synchronization algorithm and the partitioning. Band 0 and key
// 0 are the order At uses.
func (k *Kernel) AtCtxFn(t Time, band uint8, key uint64, ctx any, fn func(ctx any)) *Event {
	if fn == nil {
		panic("des: nil event function")
	}
	return k.schedule(t, band, key, k.ReserveSeq(), ctx, nil, fn)
}

// ReserveSeq consumes the next schedule sequence number without scheduling
// anything, and returns it. A component that would schedule an event only to
// find, when it fires, that nothing needs doing reserves its seq instead: the
// deferred event (see Passed) then holds the place in the (at, band, key, seq)
// order that the real one would have taken, and AtSeq can still schedule it
// there, so every other event keeps the seq it had and the committed order is
// unchanged.
func (k *Kernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq
}

// AtSeq runs fn at absolute virtual time t in band 0 with key 0, under a seq
// that ReserveSeq returned. The event must not already have Passed.
func (k *Kernel) AtSeq(t Time, seq uint64, fn func()) *Event {
	if fn == nil {
		panic("des: nil event function")
	}
	if seq == 0 || seq > k.seq {
		panic(fmt.Sprintf("des: AtSeq with unreserved seq %d", seq))
	}
	return k.schedule(t, 0, 0, seq, nil, fn, nil)
}

// Passed reports whether an event keyed (t, 0, 0, seq) — band 0, key 0, with
// a seq from ReserveSeq reserved before the clock reached t — would already
// have run. It compares the key against the order cursor:
//
//   - inside an event, the cursor is that event's (at, band, key, seq);
//   - after Run(until), everything at or before until has passed;
//   - after RunBefore(until) advanced the clock, nothing at until has;
//   - a KernelState checkpoints the cursor and Restore puts it back.
//
// Owner goroutine, stopped kernel or safepoint only, like Now.
func (k *Kernel) Passed(t Time, seq uint64) bool {
	if t != k.now {
		return t < k.now
	}
	return seq < k.cur
}

func (k *Kernel) schedule(t Time, band uint8, key uint64, seq uint64, ctx any, fn func(), fnCtx func(any)) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, k.now))
	}
	e := k.alloc()
	e.at, e.band, e.key, e.seq = t, band, key, seq
	e.fn, e.fnCtx, e.ctx = fn, fnCtx, ctx
	k.heap.push(e)
	k.nsched++
	if n := len(k.heap); n > k.heapHW {
		k.heapHW = n
	}
	return e
}

// Cancel removes a pending event from the heap and recycles it; the handle is
// dead from then on, exactly as after the event fires. Canceling an event
// that already fired, was already canceled, or was dropped by Restore is a
// no-op — such an event is not in the heap — because cancel-then-rearm is the
// normal timer idiom and must be forgiving. What is NOT legal is canceling
// through a stale handle after the object was reused: release builds cannot
// detect that (the Gen protocol exists for holders that need to), and
// pooldebug catches the reuse itself via poisoning.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	k.heap.remove(e.index)
	e.canceled = true
	k.ncanc++
	k.release(e)
}

// Step executes the single next event. It returns false when the queue is
// empty.
func (k *Kernel) Step() bool {
	if len(k.heap) == 0 {
		return false
	}
	e := k.heap.pop()
	checkNotPooled(e, "pop") // pooldebug: a pooled event in the heap is corruption
	k.now = e.at
	// The event is the cursor: band-0 key-0 seqs below its own have run at
	// this time, and so has all of band 0 key 0 once a later (band, key) runs.
	if e.band == 0 && e.key == 0 {
		k.cur = e.seq
	} else {
		k.cur = math.MaxUint64
	}
	fn, fnCtx, ctx := e.fn, e.fnCtx, e.ctx
	at, seq := e.at, e.seq
	k.nexec++
	// Release before running the handler: anything it schedules may reuse the
	// object immediately, which is what makes the steady-state hot path
	// allocation-free. The handler was extracted first, and handles kept past
	// this point are covered by the Gen() protocol (see pool.go).
	k.release(e)
	if k.hook != nil {
		k.hook.OnEvent(at, seq)
	}
	if fnCtx != nil {
		fnCtx(ctx)
	} else {
		fn()
	}
	// The event has finished and the next has not started: an event
	// boundary, where the mirrors are refreshed and a reader may be let in.
	if k.nexec%publishEvery == 0 {
		k.publish()
		if k.safepoint != nil {
			k.safepoint()
		}
	}
	return true
}

// Run executes events in timestamp order until the queue drains or the next
// event would fire after `until`. On return, Now is min(until, time of last
// executed event); events beyond `until` remain queued so the caller can
// resume with a later horizon.
func (k *Kernel) Run(until Time) {
	defer k.publish()
	for len(k.heap) > 0 && k.heap[0].at <= until {
		k.Step()
	}
	// Advance idle time to the horizon so repeated Run calls observe
	// monotonic progress — except for the drain-everything horizon used by
	// RunAll, where the end of the last event is the natural finish time.
	if k.now < until && until != MaxTime {
		k.now = until
	}
	// Every event at or before until has run.
	if k.now <= until {
		k.cur = math.MaxUint64
	}
}

// RunBefore executes events strictly before `until` and then advances Now to
// `until`; events stamped AT `until` (or later) stay queued. This is the
// window primitive of the conservative PDES engines: an earliest-input-time
// promise of T only guarantees no FUTURE message earlier than T — a message
// stamped exactly T may still be in flight — so a window may execute only
// events strictly below its horizon. Deferring the boundary events until the
// horizon has strictly passed them guarantees every same-timestamp arrival is
// already in the heap, where the (band, key) order makes their committed
// order independent of ingestion timing.
func (k *Kernel) RunBefore(until Time) {
	defer k.publish()
	for len(k.heap) > 0 && k.heap[0].at < until {
		k.Step()
	}
	if k.now < until {
		k.now = until
		k.cur = 0 // nothing at until has run
	}
}

// RunAll executes events until the queue is fully drained.
func (k *Kernel) RunAll() { k.Run(MaxTime) }

// Pending returns the number of events in the heap, which holds only live
// events: exactly Scheduled − Executed − Canceled. Owner goroutine, stopped
// kernel or safepoint only.
func (k *Kernel) Pending() int { return len(k.heap) }

// NextEventTime returns the time of the earliest pending event and true, or
// (0, false) if none is pending. The PDES engine uses this to compute
// earliest-output-time guarantees.
func (k *Kernel) NextEventTime() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// Stats reports scheduler work counters since kernel creation.
type Stats struct {
	Executed      uint64 // events run
	Scheduled     uint64 // events ever scheduled
	Canceled      uint64 // events canceled before firing
	HeapHighWater int    // deepest the event heap has ever been
	PoolHits      uint64 // event allocations served from the free list
	PoolMisses    uint64 // event allocations that hit the Go allocator
	PoolFree      int    // events currently parked on the free list
}

// Stats returns a snapshot of the kernel's work counters. Owner goroutine,
// stopped kernel or safepoint only.
func (k *Kernel) Stats() Stats {
	return Stats{
		Executed:      k.nexec,
		Scheduled:     k.nsched,
		Canceled:      k.ncanc,
		HeapHighWater: k.heapHW,
		PoolHits:      k.phit,
		PoolMisses:    k.pmiss,
		PoolFree:      len(k.free),
	}
}

// CollectMetrics implements metrics.Collector. Registering several kernels
// (one per PDES LP) under one group sums the counters and takes the maximum
// of the gauges. Mid-run it must run at the kernel's safepoint: a registry
// reaches it through the gate of the simulation that owns the kernel.
func (k *Kernel) CollectMetrics(e *metrics.Emitter) {
	st := k.Stats()
	e.Counter("events_executed", st.Executed)
	e.Counter("events_scheduled", st.Scheduled)
	e.Counter("events_canceled", st.Canceled)
	e.Counter("pool_hits", st.PoolHits)
	e.Counter("pool_misses", st.PoolMisses)
	e.Gauge("pool_free", int64(st.PoolFree))
	e.Gauge("heap_high_water", int64(st.HeapHighWater))
	e.Gauge("pending_events", int64(k.Pending()))
	e.Gauge("virtual_time_ns", int64(k.Now()))
}
