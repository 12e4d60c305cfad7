// Package pdes implements conservative Parallel Discrete Event Simulation
// (Chandy–Misra–Bryant with null messages; Fujimoto 1990) — the technique
// behind OMNeT++'s MPI-based parallel mode that the paper's Figure 1
// evaluates and finds wanting for highly interconnected data-center
// topologies.
//
// The network is partitioned into logical processes (LPs), each owning a
// subset of devices and its own event kernel, running on its own goroutine.
// Packets that cross a partition boundary become timestamped messages; links
// that cross a boundary contribute their propagation delay as lookahead.
// Each LP may only execute events up to the minimum timestamp promise it has
// received from every input channel (its earliest input time); to keep
// neighbors from stalling, LPs continually send null messages promising they
// will emit nothing earlier than (local horizon + lookahead).
//
// The overhead structure this creates — null-message chatter proportional to
// connectivity and lookahead-bounded lockstep — is exactly why "for highly
// interconnected networks like those found in data centers, synchronization
// can actually cause PDES to perform worse than a single-threaded
// implementation" (paper §2.2).
package pdes

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

// message is one cross-LP communication: a packet delivery or, when pkt is
// nil, a null message (pure timestamp promise). via is the proxy that shipped
// the packet: it carries the ordering key and the receiver-side handler the
// arrival is scheduled with.
type message struct {
	from int
	at   des.Time
	pkt  *packet.Packet
	via  *proxy
}

// outLink is the sender-side view of a cross-LP channel.
type outLink struct {
	to        *LP
	lookahead des.Time
	lastSent  des.Time // monotone promise already made

	// quiescent marks a channel the scheduled workload provably never uses
	// (see System.limitChannels): it sends no null messages and does not
	// constrain the receiver's earliest input time. Data sent on a quiescent
	// channel still flows — counted in QuiescentSends as a loud invariant
	// breach, since the receiver no longer waits for this channel's promises.
	quiescent bool
}

// LP is one logical process: a kernel, its devices, and its channel state.
type LP struct {
	id     int
	sys    *System
	kernel *des.Kernel
	inbox  chan message

	// sleeping and wake are the LP's parking slot in wait: the LP raises
	// sleeping before it parks, and a barrier release sends a token on the
	// 1-slot wake channel of every LP it finds sleeping. A metrics collection
	// sends one to every LP (see gate).
	sleeping atomic.Bool
	wake     chan struct{}

	// tw holds the Time Warp per-LP state (queues, checkpoints, counters);
	// nil under the conservative engines. See timewarp.go.
	tw *lpTW

	// savers are the LP's registered device states, checkpointed together
	// with the kernel under Time Warp. See state.go.
	savers []StateSaver

	// lastRecv[i] is the largest timestamp promise received from LP i;
	// MaxTime for LPs we never receive from.
	lastRecv []des.Time
	inputs   []int // LP ids we receive from
	outs     []*outLink
	end      des.Time

	// parked holds cross-LP packet arrivals stamped beyond the current run's
	// horizon: in-flight traffic in (end, end+lookahead] that belongs to the
	// NEXT segment of a segmented run. The buffer is re-ingested at the next
	// Run entry (resumeParked) and rides System checkpoints (fork.go), which
	// is what makes Run(t1); Run(t2) commit bit-identically to Run(t2) and
	// warm multi-LP forking sound. Appended only by the LP's own goroutine
	// and consumed at Run entry / Checkpoint / Restore, so it needs no lock.
	parked []message

	// buf is the LP's trace emission handle (nil when tracing is off); its
	// pid is the LP id, so each LP is one Perfetto process track.
	buf *obs.Buf

	// count is the LP's table of Fig. 1 and Time Warp counters (counters.go).
	count [nCounters]atomic.Uint64

	// MaxHorizon and InboxHighWater are max-gauges, written atomically for
	// mid-run readers. InboxHighWater is the deepest the inbox has been
	// observed, sampled at drain entry and on send backpressure (where
	// inboxes are deepest).
	MaxHorizon     des.Time
	InboxHighWater int64
}

// Kernel returns the LP's event kernel; devices owned by this LP must be
// built on it.
func (lp *LP) Kernel() *des.Kernel { return lp.kernel }

// ID returns the LP index.
func (lp *LP) ID() int { return lp.id }

// Trace returns the LP's trace emission Buf — nil (and safe to use as nil)
// when the system was built without WithObs. Wire it into the LP's devices
// with their SetTrace methods so packet lifecycle events land on this LP's
// process track.
func (lp *LP) Trace() *obs.Buf { return lp.buf }

// maxHorizon raises the LP's high-water horizon mark (atomically, for mid-run
// gauge readers). Single-writer: only the LP's own goroutine calls it.
func (lp *LP) maxHorizon(t des.Time) {
	if t > lp.MaxHorizon {
		atomic.StoreInt64((*int64)(&lp.MaxHorizon), int64(t))
	}
}

// inboxDepth records an observed inbox depth against the high-water mark.
// CAS loop rather than load-then-store: depth is sampled both by the LP's own
// drain and by OTHER LPs blocked sending into this inbox, so the mark has
// concurrent writers.
func (lp *LP) inboxDepth(n int) {
	d := int64(n)
	for {
		cur := atomic.LoadInt64(&lp.InboxHighWater)
		if d <= cur || atomic.CompareAndSwapInt64(&lp.InboxHighWater, cur, d) {
			return
		}
	}
}

// System is a set of LPs ready to run to a common horizon under the
// synchronization algorithm selected at construction.
type System struct {
	lps []*LP
	cfg config

	// gvtAdvances counts committed GVT advances of the last Time Warp run
	// (written atomically by the coordinator goroutine; mid-run snapshots
	// read it through CollectMetrics).
	gvtAdvances uint64

	// committed mirrors the last published GVT (des.Time, atomic) so
	// CommittedTime works from any goroutine during a Time Warp run.
	committed int64

	// cbuf is the GVT coordinator's trace handle (pid one past the last LP);
	// nil when tracing is off.
	cbuf *obs.Buf

	// fitsCores records, at the entry of a multi-LP conservative run, whether
	// every LP has a core of its own (LPs ≤ GOMAXPROCS). Read on every wait,
	// so GOMAXPROCS, which takes the scheduler lock, is asked once per Run.
	fitsCores bool

	// gate pauses the LPs for a mid-run metrics collection (gate.go).
	gate gate
}

// NewSystem creates n empty logical processes. Options select the
// synchronization algorithm Run dispatches on (default NullMessages) and its
// knobs:
//
//	NewSystem(8, WithSyncAlgo(TimeWarp), WithMaxRollbacks(1e6))
func NewSystem(n int, opts ...Option) *System {
	if n < 1 {
		panic("pdes: need at least one LP")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s := &System{cfg: cfg}
	s.gate.cond.L = &s.gate.mu
	for i := 0; i < n; i++ {
		lp := &LP{id: i, sys: s, kernel: des.NewKernel()}
		lp.kernel.SetSafepoint(lp.safepoint)
		if n > 1 {
			// A lone LP has no cross-LP channel, so it never receives a
			// message; a nil inbox spares it the full-capacity buffer.
			lp.inbox = make(chan message, cfg.inboxCap)
			lp.wake = make(chan struct{}, 1)
		}
		if cfg.tracer != nil {
			lp.buf = cfg.tracer.NewBuf(int32(i), fmt.Sprintf("LP %d", i))
			// Feed the flight recorder one record per executed kernel event.
			// KernelHook returns nil when there is no ring, keeping the
			// kernel's disabled path a single nil check.
			if h := obs.KernelHook(lp.buf); h != nil {
				lp.kernel.SetHook(h)
			}
		}
		s.lps = append(s.lps, lp)
	}
	if cfg.tracer != nil {
		s.cbuf = cfg.tracer.NewBuf(int32(n), "GVT coordinator")
	}
	return s
}

// LP returns logical process i.
func (s *System) LP(i int) *LP { return s.lps[i] }

// NumLPs returns the partition count.
func (s *System) NumLPs() int { return len(s.lps) }

// Tracer returns the tracer the system was built with (nil when tracing is
// off; a nil *obs.Tracer is safe to use).
func (s *System) Tracer() *obs.Tracer { return s.cfg.tracer }

// CommittedTime returns a lower bound on the committed virtual time: state at
// or before it can never be undone. Under Time Warp this is the last
// published GVT; under the conservative engines — which never speculate —
// it is the minimum published kernel clock (des.Kernel.PublishedNow), exact
// once Run returns. Safe from any goroutine mid-run; this is the clock Run's
// monitor and an attached obs.Progress read.
func (s *System) CommittedTime() des.Time {
	if s.cfg.algo == TimeWarp && len(s.lps) > 1 {
		return des.Time(atomic.LoadInt64(&s.committed))
	}
	min := des.MaxTime
	for _, lp := range s.lps {
		if t := lp.kernel.PublishedNow(); t < min {
			min = t
		}
	}
	if min == des.MaxTime {
		return 0
	}
	return min
}

// proxy is the sender-side stand-in for a device that lives on another LP.
// The cross-boundary link is built with zero propagation delay so the
// arrival event fires at serialization-complete time on the sender; the
// proxy then ships the packet with the propagation delay added — making the
// propagation delay the channel's lookahead.
type proxy struct {
	lp  *LP
	out *outLink
	key uint64 // netsim.ArrivalKey of the local transmitting device

	// deliver is the receiver-side arrival handler, bound once at Connect to
	// the remote device and port. The arrival event carries the packet as its
	// context (des.Kernel.AtCtxFn), so a cross-LP arrival allocates no closure.
	deliver func(ctx any)
}

func newProxy(lp *LP, out *outLink, src, dst netsim.Device, port int) *proxy {
	return &proxy{lp: lp, out: out, key: netsim.ArrivalKey(src.NodeID()),
		deliver: func(ctx any) { dst.Receive(ctx.(*packet.Packet), port) }}
}

// NodeID implements netsim.Device (proxies are invisible to routing).
func (p *proxy) NodeID() packet.NodeID { return -1000 - packet.NodeID(p.lp.id) }

// Receive forwards the packet across the LP boundary.
func (p *proxy) Receive(pkt *packet.Packet, _ int) {
	at := p.lp.kernel.Now() + p.out.lookahead
	if p.lp.tw != nil {
		p.lp.twEmit(p, at, pkt)
		return
	}
	p.lp.count[CrossPkts].Add(1)
	if p.out.quiescent {
		p.lp.count[QuiescentSends].Add(1)
	}
	if at > p.out.lastSent {
		p.out.lastSent = at
	}
	p.lp.send(p.out.to, message{from: p.lp.id, at: at, pkt: pkt, via: p})
}

// send delivers m to dst's inbox without risking deadlock. A naive blocking
// send can wedge the whole system: inboxes are bounded, and two LPs that
// fill each other's inboxes while both are mid-kernel.Run block forever
// (likewise any longer send cycle). While the destination inbox is full the
// sender therefore keeps draining its own inbox, so every LP blocked in a
// send cycle is simultaneously consuming — some inbox on the cycle always
// makes progress, and the cycle cannot wedge.
func (lp *LP) send(dst *LP, m message) {
	select {
	case dst.inbox <- m: // fast path: room available
		return
	default:
	}
	// Backpressure path: the destination inbox is at its deepest right now —
	// sample it for the high-water gauge (drain only samples its own entry).
	// A metrics collection pauses a destination that never drains; the wake
	// token it sends gets this sender to its safepoint too.
	dst.inboxDepth(len(dst.inbox))
	for {
		select {
		case dst.inbox <- m:
			return
		case in := <-lp.inbox:
			lp.ingest(in)
		case <-lp.wake:
			lp.safepoint()
		}
	}
}

// Connect wires a duplex link between port a (on LP la, owned by aOwner)
// and port b (on LP lb, owned by bOwner).
//
// Same-LP links connect directly and lookahead is ignored. Cross-LP links
// require the caller to have built both ports with ZERO propagation delay:
// the lookahead (the physical propagation delay, which must be positive) is
// re-added as cross-LP message latency, making it the channel's conservative
// lookahead — arrival events then fire on the sender at serialization-done
// time, and the receiver gets a message stamped lookahead later.
func (s *System) Connect(la *LP, a *netsim.Port, lb *LP, b *netsim.Port,
	aOwner, bOwner netsim.Device, lookahead des.Time) error {

	if la == lb {
		netsim.Connect(a, b)
		return nil
	}
	if lookahead <= 0 {
		return fmt.Errorf("pdes: cross-LP links need positive lookahead")
	}
	if a.Config().PropDelay != 0 || b.Config().PropDelay != 0 {
		return fmt.Errorf("pdes: cross-LP ports must be built with zero propagation delay")
	}
	outAB := s.ensureOut(la, lb, lookahead)
	outBA := s.ensureOut(lb, la, lookahead)
	pa := newProxy(la, outAB, aOwner, bOwner, b.Index())
	pb := newProxy(lb, outBA, bOwner, aOwner, a.Index())
	netsim.Connect(a, netsim.NewPort(la.kernel, pa, 0, a.Config()))
	netsim.Connect(b, netsim.NewPort(lb.kernel, pb, 0, b.Config()))
	return nil
}

// ensureOut returns (creating if needed) the from->to channel record.
func (s *System) ensureOut(from, to *LP, lookahead des.Time) *outLink {
	for _, o := range from.outs {
		if o.to == to {
			if lookahead < o.lookahead {
				o.lookahead = lookahead
			}
			return o
		}
	}
	o := &outLink{to: to, lookahead: lookahead}
	from.outs = append(from.outs, o)
	// Register the input on the receiving side.
	to.inputs = append(to.inputs, from.id)
	return o
}

// limitChannels restricts the conservative synchronization graph to the
// channels marked in active, indexed from*lps+to (nil marks them all): every
// other channel is marked quiescent — it sends no null messages and no longer
// holds down its receiver's earliest input time. active must be sound: a
// channel may be left out only if no packet of the scheduled workload can
// cross it. Only Network.SetFaults calls it, between runs, with the set Build
// proved (see Network.active) or nil; it has no effect on the Time Warp
// engine, which does not use promises.
func (s *System) limitChannels(active []bool) {
	for _, lp := range s.lps {
		lp.inputs = lp.inputs[:0]
	}
	for _, lp := range s.lps {
		for _, o := range lp.outs {
			o.quiescent = active != nil && !active[lp.id*len(s.lps)+o.to.id]
			if !o.quiescent {
				o.to.inputs = append(o.to.inputs, lp.id)
			}
		}
	}
}

// Run executes all LPs concurrently until the common virtual-time horizon,
// dispatching on the SyncAlgo the system was built with. It returns once
// every LP has reached the horizon and, under Time Warp, once GVT has passed
// it (all state committed). The error is always nil for the conservative
// algorithms; Time Warp fails when WithMaxRollbacks is exceeded.
func (s *System) Run(end des.Time) error {
	var loop func(*LP, *barrier) int64
	switch s.cfg.algo {
	case NullMessages:
		loop = func(lp *LP, _ *barrier) int64 { lp.run(); return 0 }
	case Barrier:
		loop = s.barrierWindows(end)
	case TimeWarp:
	default:
		return fmt.Errorf("pdes: unknown sync algorithm %v", s.cfg.algo)
	}
	// Setup and wrap-up on this goroutine exclude metrics collections; the
	// engines let them in for their parallel phase (gate.open, gate.close).
	s.gate.serial.Lock()
	if sp := s.cfg.sampler; sp != nil && len(s.lps) == 1 {
		// Every algorithm runs a lone LP as its plain kernel, so the sampler
		// rides that kernel as a recurring event: rows land at exact sim-time
		// boundaries, race-free.
		sp.InstallKernel(s.lps[0].kernel, end)
	}
	stopMonitor := s.startMonitor()
	var err error
	switch {
	case len(s.lps) == 1:
		// A lone LP has no channel, so it never receives a message or parks
		// an arrival: every algorithm reduces to its kernel, run on this
		// goroutine.
		s.gate.open(1)
		s.lps[0].kernel.Run(end)
		s.gate.leave()
		s.gate.close()
	case s.cfg.algo == TimeWarp:
		err = s.runTimeWarp(end)
	default:
		s.runConservative(end, loop)
	}
	// The run has ended for the gate before the sampler's final row, which
	// then collects at once.
	s.gate.serial.Unlock()
	stopMonitor()
	if sp := s.cfg.sampler; sp != nil {
		// The final row is stamped at the horizon on success, at the last
		// committed time on an abort.
		now := end
		if err != nil {
			now = s.CommittedTime()
		}
		if cerr := sp.Close(now); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// startMonitor starts the run's one wall-clock goroutine when there is
// something to watch, and returns the function that stops and joins it. Each
// tick reads the committed-time frontier once and feeds it to
//   - a multi-LP sampler (Sampler.Observe), which emits a row whenever the
//     frontier crosses an interval boundary, and
//   - the stall check, armed whenever the tracer carries a flight recorder:
//     a frontier that makes no progress for stallTimeout dumps the recorder
//     once (reason "deadlock_suspected"). Detection only — the run itself is
//     left alone; a truly wedged run is killed by its caller, and the dump is
//     the artifact that explains what wedged.
func (s *System) startMonitor() (stop func()) {
	var sp *obs.Sampler
	if len(s.lps) > 1 {
		sp = s.cfg.sampler
	}
	watch := s.cfg.tracer.FlightRecorderEnabled()
	if sp == nil && !watch {
		return func() {}
	}
	// Rows want a fine tick; the stall check alone needs a few per window.
	poll := s.cfg.monitorPoll
	if sp == nil {
		poll = s.cfg.stallTimeout / 4
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last, lastMove := s.CommittedTime(), time.Now()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
			now := s.CommittedTime()
			sp.Observe(now)
			if now != last {
				last, lastMove = now, time.Now()
			} else if watch && time.Since(lastMove) >= s.cfg.stallTimeout {
				s.cfg.tracer.DumpFlightRecorder("deadlock_suspected", last)
				watch = false
			}
		}
	}()
	return func() { close(quit); <-done }
}

// runConservative runs a multi-LP conservative engine to end on one
// goroutine per LP. Each goroutine runs loop, which advances its LP strictly
// below end and returns the number of windows it waited for on the run's
// barrier (zero under null messages). Then, in three phases separated by
// that barrier:
//
//  1. The LP waits for every other LP to finish its loop, ingesting its
//     inbox the whole time so a neighbor still running never blocks on it
//     for good. Everything it ingests is stamped at or beyond end (its inputs
//     promised nothing earlier): arrivals at exactly end are scheduled,
//     later ones parked for the next segment (ParkedArrivals).
//  2. The catch-up: the loops execute strictly below end, so deliveries
//     stamped exactly end are still pending. Once every LP is past phase 1
//     every such arrival is in some inbox; the LP drains its own and runs its
//     kernel inclusively to end. Events at end may send across LPs (always
//     stamped beyond end: lookahead is positive), so the LP again waits for
//     the others while it ingests. A sequential catch-up would deadlock on a
//     small inbox: a sender blocked on an LP that no longer consumes spins on
//     its own empty inbox forever.
//  3. Nothing sends anymore; one last drain parks what is still in flight.
//
// Every inbox is empty when runConservative returns.
func (s *System) runConservative(end des.Time, loop func(*LP, *barrier) int64) {
	n := len(s.lps)
	for _, lp := range s.lps {
		lp.end = end
		lp.lastRecv = make([]des.Time, n)
		for i := range lp.lastRecv {
			lp.lastRecv[i] = des.MaxTime
		}
		// Seed input promises at the committed floor rather than zero: Run is
		// only entered at quiescence, where every kernel clock agrees, so no
		// sender can emit anything at or before its own Now. On a fresh system
		// the floor is zero; on a resumed segment it is the previous horizon,
		// which spares the null-message protocol a lookahead-step-at-a-time
		// climb from zero back to time already committed. The barrier protocol
		// records promises but never reads them.
		floor := lp.kernel.Now()
		for _, in := range lp.inputs {
			lp.lastRecv[in] = floor
		}
		// Promises are per-run state: a previous run to an earlier horizon (or
		// a checkpoint restore — see fork.go) left lastSent at that run's final
		// promises, which exceed anything this run announces early on. Stale
		// marks would suppress the null messages the receivers' fresh lastRecv
		// now waits for, deadlocking the protocol.
		for _, o := range lp.outs {
			o.lastSent = 0
		}
		// In-flight packets parked past a previous segment's horizon re-enter
		// here, before any LP goroutine starts.
		lp.resumeParked()
	}
	s.enterParallel()
	defer parallelRuns.Add(-1)
	b := newBarrier(n)
	var wg sync.WaitGroup
	s.gate.open(n)
	for _, lp := range s.lps {
		wg.Add(1)
		go func(lp *LP) {
			defer wg.Done()
			defer s.gate.leave()
			k := loop(lp, b)
			lp.awaitWindow(b, k+1)
			lp.drain()
			lp.kernel.Run(end)
			lp.awaitWindow(b, k+2)
			lp.drain()
		}(lp)
	}
	wg.Wait()
	s.gate.close()
}

// eit is the earliest input time: the weakest promise across inputs.
func (lp *LP) eit() des.Time {
	min := des.MaxTime
	for _, in := range lp.inputs {
		if lp.lastRecv[in] < min {
			min = lp.lastRecv[in]
		}
	}
	return min
}

// run is the LP main loop.
func (lp *LP) run() {
	for {
		lp.drain()
		horizon := lp.eit()
		if horizon > lp.end {
			horizon = lp.end
		}
		lp.maxHorizon(horizon)
		// Strictly below the horizon: a promise of T only says no FUTURE
		// message is earlier than T — one stamped exactly T may still be in
		// flight, so events at T run only once the horizon strictly passes
		// them (and every same-timestamp arrival is in the heap, where the
		// (band, key) order is ingestion-timing-independent).
		lp.kernel.RunBefore(horizon)
		lp.sendNulls(horizon)
		if horizon >= lp.end {
			return
		}
		// A send that meets a full inbox ingests while it waits (LP.send), so
		// the promise this LP needs may already be in. Stall only while the
		// EIT still sits at the horizon: a neighbor that has sent its final
		// promise and returned sends nothing more, and waiting for it would
		// park this LP for good.
		if lp.eit() > horizon {
			continue
		}
		lp.stall()
	}
}

// ingest applies one inbox message: it advances the sender's promise and,
// for packet messages, schedules the delivery event.
//
// A packet stamped before local Now is a causality violation — impossible
// under correct conservative promises. It is counted (never silently
// clamped) so synchronization bugs surface in metrics and tests, and then
// delivered at Now as the least-bad recovery. A packet stamped beyond the
// run horizon can never execute in this run; scheduling it would leave a
// phantom event lingering in the kernel heap (skewing Pending() and event
// accounting), so it is parked — buffered for the next Run segment (or a
// checkpoint) to re-ingest — and counted in ParkedArrivals.
func (lp *LP) ingest(m message) {
	if m.at > lp.lastRecv[m.from] {
		lp.lastRecv[m.from] = m.at
	}
	if m.pkt == nil {
		return
	}
	at := m.at
	if now := lp.kernel.Now(); at < now {
		lp.count[Violations].Add(1)
		if lp.buf.Enabled() {
			lp.buf.Emit(obs.Event{TS: now, Ph: obs.PhInstant, Name: "causality_violation",
				Cat: "pdes", K1: "late_ns", V1: int64(now - at), K2: "from_lp", V2: int64(m.from)})
		}
		// A conservative-protocol causality violation is a synchronization
		// bug: capture the recent event history of every LP while it is hot.
		lp.sys.cfg.tracer.DumpFlightRecorder("causality_violation", now)
		at = now
	}
	if at > lp.end {
		lp.count[ParkedArrivals].Add(1)
		lp.parked = append(lp.parked, m)
		return
	}
	lp.scheduleArrival(at, m)
}

// scheduleArrival schedules the delivery event for a cross-LP packet arrival.
//
// Band 1, keyed by the transmitting device: cross-LP arrivals order after
// same-timestamp local events, and same-timestamp arrivals from different
// sender LPs order by transmitter — not by the racy interleaving in which
// their messages happened to reach the inbox. The same (band, key) is used
// by netsim for locally simulated fabric links (LinkConfig.ArrivalBand),
// so the committed order is also independent of the partitioning — and of
// whether the arrival was ingested live or re-ingested from the parked
// buffer at a later Run entry (resumeParked).
func (lp *LP) scheduleArrival(at des.Time, m message) {
	lp.kernel.AtCtxFn(at, 1, m.via.key, m.pkt, m.via.deliver)
}

// resumeParked re-ingests arrivals parked past a previous run's horizon.
// Called once per LP at Run entry (single-goroutine, after lp.end and the
// per-run lastRecv/lastSent initialization, before any LP goroutine starts).
//
// Soundness: a parked timestamp lies in (t1, t1+lookahead] where t1 is the
// previous horizon, and every kernel clock sits at t1 at quiescence, so the
// new run's earliest possible cross-LP send is t1+lookahead — the lastRecv
// bump below is a promise the sender cannot violate, and the scheduled event
// can never be in the kernel's past. Messages still beyond the NEW horizon
// re-park without recounting (ParkedArrivals counts first parks only).
func (lp *LP) resumeParked() {
	parked := lp.parked
	lp.parked = nil
	for _, m := range parked {
		if m.at > lp.lastRecv[m.from] {
			lp.lastRecv[m.from] = m.at
		}
		if m.at > lp.end {
			lp.parked = append(lp.parked, m)
			continue
		}
		lp.scheduleArrival(m.at, m)
	}
}

// drain ingests every message waiting in the inbox and reports whether there
// was any.
func (lp *LP) drain() bool {
	lp.inboxDepth(len(lp.inbox))
	got := false
	for {
		select {
		case m := <-lp.inbox:
			lp.ingest(m)
			got = true
		default:
			return got
		}
	}
}

// stall is the null-message EIT stall: the LP has run up to its earliest
// input time and waits for a neighbor's next message, which may raise it.
func (lp *LP) stall() {
	stalls := lp.count[EITStalls].Add(1)
	if lp.buf.Enabled() {
		lp.buf.Emit(obs.Event{TS: lp.kernel.Now(), Ph: obs.PhInstant, Name: "eit_stall",
			Cat: "pdes", K1: "stalls", V1: int64(stalls)})
	}
	if lp.wait(func(ingested bool) bool { return ingested }) {
		lp.count[EITParks].Add(1)
	}
	lp.drain()
}

// waitPoll bounds how long a waiting LP polls before it parks. Most waits end
// within a few microseconds, so polling spares them a park/wake round trip;
// the bound keeps an LP that waits on a slow neighbor from holding a core.
// It is wall time, not a count of yields: a yield costs several times more
// when the host is busy or the race detector is on, and a count would stretch
// every unanswered poll with it.
const waitPoll = 30 * time.Microsecond

// parallelRuns counts the multi-LP Systems inside a conservative Run in this
// process (raised and lowered by runConservative).
var parallelRuns atomic.Int32

// enterParallel registers a multi-LP conservative run; the caller lowers
// parallelRuns when the run returns.
func (s *System) enterParallel() {
	s.fitsCores = len(s.lps) <= runtime.GOMAXPROCS(0)
	parallelRuns.Add(1)
}

// mayPoll is wait's gate: a waiting LP polls only while its System is the
// only multi-LP run in the process and every one of its LPs has a core.
// Otherwise the cores a poller would hold belong to someone else — another
// System's LPs, or a server's request goroutines that no LP count sees — and
// the LP parks at once.
func (s *System) mayPoll() bool {
	return s.fitsCores && parallelRuns.Load() == 1
}

// wait is the one blocking wait of both conservative engines: the
// null-message EIT stall and the barrier wait (LP.awaitWindow). It returns
// once ready reports true; ready is asked after each inbox ingest and told
// whether that ingest took a message. The LP ingests its inbox the whole
// time, so a neighbor blocked sending to it always makes progress.
//
// While mayPoll allows, the LP first polls for up to waitPoll in rounds of
// ingest, check, runtime.Gosched. Then it parks: it raises its sleeping flag,
// re-checks ready, and blocks on its inbox or its wake channel. The flag and
// the condition ready reads are a store-then-load pair on each side (see
// awaitWindow), so no wakeup is lost. wait reports whether it parked. Every
// poll round and every park starts at a safepoint (see gate).
func (lp *LP) wait(ready func(ingested bool) bool) (parked bool) {
	if lp.sys.mayPoll() {
		start := time.Now()
		for {
			lp.safepoint()
			if ready(lp.drain()) {
				return false
			}
			if time.Since(start) > waitPoll {
				break
			}
			runtime.Gosched()
		}
	}
	ingested := false
	for {
		lp.safepoint()
		lp.sleeping.Store(true)
		if ready(ingested) {
			lp.sleeping.Store(false)
			return parked
		}
		parked = true
		select {
		case <-lp.wake:
			ingested = false
		case m := <-lp.inbox:
			lp.ingest(m)
			ingested = true
		}
		lp.sleeping.Store(false)
	}
}

// sendNulls promises each downstream neighbor that no output will arrive
// before (earliest possible local activity + lookahead).
func (lp *LP) sendNulls(horizon des.Time) {
	eot := horizon
	if t, ok := lp.kernel.NextEventTime(); ok && t < eot {
		eot = t
	}
	for _, o := range lp.outs {
		if o.quiescent {
			continue // receiver does not wait on this channel
		}
		promise := eot + o.lookahead
		if promise <= o.lastSent {
			continue // nothing new to promise
		}
		o.lastSent = promise
		lp.count[Nulls].Add(1)
		lp.send(o.to, message{from: lp.id, at: promise})
	}
}

// barrierWindows returns the loop of the barrier engine: time-stepped
// synchronization, the other classic conservative algorithm. All LPs advance
// in lockstep windows of the global minimum lookahead; a barrier separates
// windows. Any message sent during window [t, t+d) carries a timestamp >=
// t+d (lookahead >= d), so delivering queued messages at the next window
// boundary preserves causality.
//
// An LP drains its inbox, executes its window, arrives at the barrier and
// waits there for the other LPs (LP.awaitWindow): like an EIT stall it goes
// through LP.wait, polling the shared arrival counter while the gate allows,
// then parking until the last arrival wakes it. Nothing is spawned or
// allocated per window.
//
// Compared to null messages, barriers trade per-channel chatter for
// synchronization points whose count is horizon/lookahead — a different
// flavor of the same Figure 1 overhead.
func (s *System) barrierWindows(end des.Time) func(*LP, *barrier) int64 {
	delta := des.MaxTime
	for _, lp := range s.lps {
		for _, o := range lp.outs {
			if o.lookahead < delta {
				delta = o.lookahead
			}
		}
	}
	if delta == des.MaxTime {
		// No cross-LP channels: the partitions are independent.
		delta = end
	}
	if delta < 1 {
		delta = 1
	}
	// A resumed segment starts its windows at the committed floor instead of
	// replaying empty windows from zero. Shifting window boundaries cannot
	// change the committed result: boundaries only bound execution, and the
	// keyed heap orders events identically regardless of which window
	// ingested them — the segmented-determinism tests pin this.
	start := s.CommittedTime()
	return func(lp *LP, b *barrier) int64 {
		var k int64
		for t := start; t < end; t += delta {
			horizon := min(t+delta, end)
			lp.drain()
			lp.maxHorizon(horizon)
			// Strictly below the window boundary: a message sent during this
			// window may be stamped exactly `horizon`, and it is only
			// guaranteed to have been ingested by the NEXT window's drain.
			// Deferring boundary events until the window strictly passes them
			// makes the committed order independent of message arrival timing
			// (the keyed heap orders all same-timestamp arrivals identically).
			lp.kernel.RunBefore(horizon)
			lp.count[Barriers].Add(1)
			k++
			lp.awaitWindow(b, k)
		}
		return k
	}
}

// barrier separates the phases of a conservative run: the barrier engine's
// windows, then the end of every LP's loop and of the catch-up (see
// System.runConservative). Window k is complete when the shared arrival
// counter reaches k·n; the last arrival wakes every LP it finds sleeping in
// wait. Waiters re-check the counter after any wake, so a stale token left
// from an earlier window is harmless.
type barrier struct {
	n       int64
	arrived atomic.Int64
}

func newBarrier(n int) *barrier { return &barrier{n: int64(n)} }

// awaitWindow arrives at the barrier for window k and returns once every LP
// has arrived. While it waits the LP keeps ingesting its inbox, so a neighbor
// still computing never blocks for good on a full inbox; the messages carry
// timestamps at or beyond the window's end, so they only schedule future
// events. A waiter raises its sleeping flag before it re-checks the counter,
// and the last arrival bumps the counter before it reads the flags: either
// the waiter sees the last arrival or the last arrival sees the flag.
func (lp *LP) awaitWindow(b *barrier, k int64) {
	target := k * b.n
	if b.arrived.Add(1) == target {
		for _, p := range lp.sys.lps {
			if p.sleeping.Load() {
				select {
				case p.wake <- struct{}{}:
				default:
				}
			}
		}
		return
	}
	lp.wait(func(bool) bool { return b.arrived.Load() >= target })
}
