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
	"approxsim/internal/metrics"
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
	// (see System.LimitChannels): it sends no null messages and does not
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
	// warm multi-LP forking sound. Appended only in quiesced phases (the LP's
	// own goroutine, its post-run drainer, finalCatchUp) and consumed at Run
	// entry / Checkpoint / Restore, so it needs no lock.
	parked []message

	// buf is the LP's trace emission handle (nil when tracing is off); its
	// pid is the LP id, so each LP is one Perfetto process track.
	buf *obs.Buf

	// Counters for the Fig. 1 analysis and the observability layer. Each has
	// a single writer (the LP's own goroutine, or for ParkedArrivals its
	// drainer after the LP goroutine has finished) but is MUTATED with
	// sync/atomic so a mid-run metrics snapshot from another goroutine reads
	// torn-free values. Reading the plain fields is only safe at quiescence
	// (after Run returns); mid-run readers go through Stats/CollectMetrics.
	Nulls      uint64 // null messages sent (CMB mode)
	Barriers   uint64 // synchronization windows executed (barrier mode)
	CrossPkts  uint64 // packets shipped to other LPs
	MaxHorizon des.Time

	// Violations counts causality violations: cross-LP packets that arrived
	// with a timestamp in this LP's past and had to be clamped to Now. Under
	// a correct conservative synchronization protocol this is always zero;
	// any nonzero value is a synchronization bug, surfaced here instead of
	// being silently absorbed.
	Violations uint64
	// EITStalls counts the times the LP exhausted its input promises and had
	// to block waiting for a neighbor — the paper's §2.2 lockstep overhead.
	EITStalls uint64
	// ParkedArrivals counts cross-LP packets stamped beyond the run horizon
	// and moved to the parked buffer. They cannot execute inside the run
	// that received them, but they are NOT lost: the next Run (or a restored
	// checkpoint's) re-ingests them. Each in-flight packet is counted once,
	// at first park — re-parking at a later horizon does not recount.
	ParkedArrivals uint64
	// PostHorizonDrops counts cross-LP packets genuinely lost at a terminal
	// horizon. The conservative engines never drop — they park (see
	// ParkedArrivals) — so this is nonzero only under Time Warp, whose
	// optimistic machinery cannot be resumed past its final GVT (gvt.go).
	PostHorizonDrops uint64
	// QuiescentSends counts packets emitted on a channel LimitChannels marked
	// quiescent. Always zero when the quiescence analysis is sound (the
	// workload is fully pre-scheduled and paths are deterministic); nonzero
	// means a packet took a path the analysis missed, and the receiver may
	// have executed past it — tests treat this like Violations.
	QuiescentSends uint64
	// InboxHighWater is the deepest the inbox has been observed, sampled at
	// drain entry and on send backpressure (where inboxes are deepest).
	InboxHighWater int64

	// Time Warp counters (zero under the conservative engines). These are
	// never rolled back: they account the optimistic machinery itself.
	//
	// Rollbacks counts straggler- or anti-message-triggered state restores.
	Rollbacks uint64
	// AntiMessages counts anti-messages sent to cancel speculative output.
	AntiMessages uint64
	// RolledBackEvents counts executed events undone by rollbacks (the
	// wasted speculative work; committed work is the kernel's Executed).
	RolledBackEvents uint64
	// Checkpoints counts state snapshots taken.
	Checkpoints uint64
	// LazyCancelSaved counts rolled-back sends that lazy cancellation proved
	// identical on re-execution — anti-messages (and re-sends) avoided.
	LazyCancelSaved uint64
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

	// window is the current Time Warp speculation window (des.Time, atomic):
	// fixed at cfg.window normally, steered between cfg.windowMin and
	// cfg.windowMax by the GVT coordinator under WithAdaptiveWindow. LPs read
	// it in twLimit; the shrink/grow counters record the coordinator's moves.
	window        int64
	windowShrinks uint64
	windowGrows   uint64

	// cbuf is the GVT coordinator's trace handle (pid one past the last LP);
	// nil when tracing is off.
	cbuf *obs.Buf
}

// NewSystem creates n empty logical processes. Options select the
// synchronization algorithm Run dispatches on (default NullMessages) and its
// knobs:
//
//	NewSystem(8, WithSyncAlgo(TimeWarp), WithGVTInterval(time.Millisecond))
func NewSystem(n int, opts ...Option) *System {
	if n < 1 {
		panic("pdes: need at least one LP")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	s := &System{cfg: cfg}
	w := cfg.window
	if cfg.adaptWindow {
		if w < cfg.windowMin {
			w = cfg.windowMin
		}
		if w > cfg.windowMax {
			w = cfg.windowMax
		}
	}
	s.window = int64(w)
	for i := 0; i < n; i++ {
		lp := &LP{id: i, sys: s, kernel: des.NewKernel()}
		if n > 1 {
			// A lone LP has no cross-LP channel, so it never receives a
			// message; a nil inbox spares it the full-capacity buffer.
			lp.inbox = make(chan message, cfg.inboxCap)
		}
		lp.kernel.SetPooling(cfg.pool)
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

// Algo returns the synchronization algorithm the system was built with.
func (s *System) Algo() SyncAlgo { return s.cfg.algo }

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
// it is the minimum kernel clock. Safe from any goroutine mid-run; this is
// the clock the Run-managed sampler polls.
func (s *System) CommittedTime() des.Time {
	if s.cfg.algo == TimeWarp && len(s.lps) > 1 {
		return des.Time(atomic.LoadInt64(&s.committed))
	}
	min := des.MaxTime
	for _, lp := range s.lps {
		if t := lp.kernel.Now(); t < min {
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
	atomic.AddUint64(&p.lp.CrossPkts, 1)
	if p.out.quiescent {
		atomic.AddUint64(&p.lp.QuiescentSends, 1)
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
	dst.inboxDepth(len(dst.inbox))
	for {
		select {
		case dst.inbox <- m:
			return
		case in := <-lp.inbox:
			lp.ingest(in)
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
		lookahead = s.cfg.defLookahead
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

// LimitChannels restricts the conservative synchronization graph to the
// channels `active` reports as used: every other channel is marked quiescent —
// it sends no null messages and no longer holds down its receiver's earliest
// input time. Callers must derive `active` soundly: a channel may be excluded
// only if the scheduled workload provably never routes a packet across it
// (with a fully pre-scheduled workload and deterministic ECMP, the exact set
// of directed LP pairs that ever carry data is computable at build time).
// Packets that cross a quiescent channel anyway still arrive, but are counted
// in QuiescentSends as an invariant breach. Null-message traffic is
// proportional to active-channel count, so this is where a traffic-aware
// partition turns locality into less synchronization chatter. Must be called
// before Run; it has no effect on the Time Warp engine, which does not use
// promises.
//
// Quiescence is incompatible with fault injection: a fault reroutes flows
// onto paths the workload analysis never saw, so "provably idle" stops being
// provable the moment the first element fails. Until per-failure-epoch
// recomputation exists, declaring both is a configuration error, returned
// here rather than silently producing an unsound synchronization graph.
func (s *System) LimitChannels(active func(from, to int) bool) error {
	if !s.cfg.faults.Empty() {
		return fmt.Errorf("pdes: LimitChannels is unsound with a fault schedule: " +
			"failure rerouting invalidates the workload-derived channel analysis")
	}
	for _, lp := range s.lps {
		lp.inputs = lp.inputs[:0]
	}
	for _, lp := range s.lps {
		for _, o := range lp.outs {
			o.quiescent = !active(lp.id, o.to.id)
			if !o.quiescent {
				o.to.inputs = append(o.to.inputs, lp.id)
			}
		}
	}
	return nil
}

// ActiveChannels counts non-quiescent directed cross-LP channels.
func (s *System) ActiveChannels() int {
	n := 0
	for _, lp := range s.lps {
		for _, o := range lp.outs {
			if !o.quiescent {
				n++
			}
		}
	}
	return n
}

// Run executes all LPs concurrently until the common virtual-time horizon,
// dispatching on the SyncAlgo the system was built with. It returns once
// every LP has reached the horizon and, under Time Warp, once GVT has passed
// it (all state committed). The error is always nil for the conservative
// algorithms; Time Warp fails when WithMaxRollbacks is exceeded.
func (s *System) Run(end des.Time) error {
	if sp := s.cfg.sampler; sp != nil {
		if len(s.lps) == 1 {
			// Every algorithm runs a lone LP as its plain kernel, so the
			// sampler rides that kernel as a recurring event: rows land at
			// exact sim-time boundaries, race-free.
			sp.InstallKernel(s.lps[0].kernel, end)
		} else {
			sp.StartPolling(s.CommittedTime, s.cfg.samplerPoll)
		}
	}
	if stopWatch := s.startStallWatchdog(); stopWatch != nil {
		defer stopWatch()
	}
	var err error
	switch s.cfg.algo {
	case NullMessages:
		s.runNull(end)
	case Barrier:
		s.runBarrier(end)
	case TimeWarp:
		err = s.runTimeWarp(end)
	default:
		err = fmt.Errorf("pdes: unknown sync algorithm %v", s.cfg.algo)
	}
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

// startStallWatchdog arms the deadlock detector configured by
// WithStallTimeout: a wall-clock goroutine watching the committed-time
// frontier, dumping the flight recorder once (reason "deadlock_suspected")
// if the frontier makes no progress for the configured window. Detection
// only — the run itself is left alone; a truly wedged run is killed by its
// caller, and the dump is the artifact that explains what wedged. Returns
// the stop function, or nil when the watchdog is not configured.
func (s *System) startStallWatchdog() func() {
	d := s.cfg.stallTimeout
	if d <= 0 || s.cfg.tracer == nil {
		return nil
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := s.CommittedTime()
		lastMove := time.Now()
		poll := d / 4
		if poll <= 0 {
			poll = d
		}
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if now := s.CommittedTime(); now != last {
					last, lastMove = now, time.Now()
					continue
				}
				if time.Since(lastMove) >= d {
					s.cfg.tracer.DumpFlightRecorder("deadlock_suspected", last)
					return
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}

// runNull executes the Chandy-Misra-Bryant null-message protocol.
func (s *System) runNull(end des.Time) {
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
		// the floor is zero (identical to the historical init); on a resumed
		// segment it is the previous horizon, which spares the protocol a
		// lookahead-step-at-a-time null-message climb from zero back to time
		// already committed.
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
	if n == 1 {
		s.lps[0].kernel.Run(end)
		return
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drainers sync.WaitGroup
	for _, lp := range s.lps {
		wg.Add(1)
		go func(lp *LP) {
			defer wg.Done()
			lp.run()
			// Keep the inbox draining so late senders never block, until the
			// coordinator announces global completion. Ingest (not just count)
			// what arrives: everything is stamped at or beyond this LP's
			// horizon — its inputs promised nothing earlier — so packets at
			// exactly `end` are scheduled for the final catch-up and later
			// ones are parked for the next segment. Only this drainer touches
			// the LP's state after lp.run returned, so the access is race-free.
			drainers.Add(1)
			go func() {
				defer drainers.Done()
				for {
					select {
					case m := <-lp.inbox:
						lp.ingest(m)
					case <-stop:
						// stop closes only after every LP goroutine has
						// returned, so nothing sends anymore — but a message
						// may already be sitting in the inbox, and select
						// picks branches at random when both are ready. Flush
						// before exiting so every straggler is accounted.
						for {
							select {
							case m := <-lp.inbox:
								lp.ingest(m)
							default:
								return
							}
						}
					}
				}
			}()
		}(lp)
	}
	wg.Wait()
	close(stop)
	drainers.Wait()
	// The window loops execute strictly below their horizons (RunBefore), so
	// deliveries stamped exactly at `end` are still pending. Execute them now
	// that every same-timestamp arrival is guaranteed to be in the heap.
	s.finalCatchUp(end)
}

// finalCatchUp runs every kernel once more, inclusively, to the horizon, so
// deliveries stamped exactly at `end` execute instead of lingering in the
// heap. Events at `end` can emit cross-LP sends (always stamped beyond the
// horizon: lookahead is positive), so the catch-up needs the same two-phase
// structure as a barrier window: every LP computes while its inbox stays
// drained, because a sequential catch-up would leave some inboxes unconsumed
// and a sender blocked on a full one would deadlock — with a bounded inbox
// the send fallback spins on the sender's own empty inbox forever. The
// drained messages are ingested, which parks every post-horizon packet
// (ParkedArrivals) for the next segment instead of silently losing it.
func (s *System) finalCatchUp(end des.Time) {
	var wg, compute sync.WaitGroup
	stop := make(chan struct{})
	for _, lp := range s.lps {
		wg.Add(1)
		compute.Add(1)
		go func(lp *LP) {
			defer wg.Done()
			lp.drain(false)
			lp.kernel.Run(end)
			compute.Done()
			for {
				select {
				case m := <-lp.inbox:
					lp.ingest(m)
				case <-stop:
					for {
						select {
						case m := <-lp.inbox:
							lp.ingest(m)
						default:
							return
						}
					}
				}
			}
		}(lp)
	}
	compute.Wait()
	close(stop)
	wg.Wait()
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
		lp.drain(false)
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
		lp.drain(true)
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
		atomic.AddUint64(&lp.Violations, 1)
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
		atomic.AddUint64(&lp.ParkedArrivals, 1)
		lp.parked = append(lp.parked, m)
		return
	}
	lp.scheduleArrival(m.at, m)
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

// drain ingests inbox messages; when block is set it waits for at least one.
func (lp *LP) drain(block bool) {
	lp.inboxDepth(len(lp.inbox))
	if block {
		atomic.AddUint64(&lp.EITStalls, 1)
		if lp.buf.Enabled() {
			lp.buf.Emit(obs.Event{TS: lp.kernel.Now(), Ph: obs.PhInstant, Name: "eit_stall",
				Cat: "pdes", K1: "stalls", V1: int64(atomic.LoadUint64(&lp.EITStalls))})
		}
		lp.ingest(<-lp.inbox)
	}
	for {
		select {
		case m := <-lp.inbox:
			lp.ingest(m)
		default:
			return
		}
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
		atomic.AddUint64(&lp.Nulls, 1)
		lp.send(o.to, message{from: lp.id, at: promise})
	}
}

// Stats aggregates LP counters.
type Stats struct {
	Events    uint64
	Nulls     uint64
	Barriers  uint64
	CrossPkts uint64
	// Violations is the total causality-violation count — always zero under
	// a correct conservative protocol; tests fail when it is not.
	Violations uint64
	// EITStalls counts blocking waits for neighbor promises.
	EITStalls uint64
	// ParkedArrivals counts cross-LP packets stamped beyond a conservative
	// run's horizon and parked for the next segment — resumable, not lost.
	ParkedArrivals uint64
	// PostHorizonDrops counts cross-LP packets lost at a terminal horizon;
	// nonzero only under Time Warp (the conservative engines park instead).
	PostHorizonDrops uint64
	// Rollbacks, AntiMessages, RolledBackEvents, and GVTAdvances account the
	// Time Warp machinery; all zero under the conservative engines.
	Rollbacks        uint64
	AntiMessages     uint64
	RolledBackEvents uint64
	GVTAdvances      uint64
	// LazyCancelSaved counts anti-messages avoided by lazy cancellation;
	// WindowShrinks/WindowGrows count adaptive speculation-window moves.
	LazyCancelSaved uint64
	WindowShrinks   uint64
	WindowGrows     uint64
	// Checkpoints counts state snapshots taken (Time Warp only).
	Checkpoints uint64
	// QuiescentSends counts packets emitted on channels LimitChannels marked
	// quiescent — always zero when the quiescence analysis is sound.
	QuiescentSends uint64
}

// Stats sums counters across LPs. Safe to call mid-run from any goroutine:
// every field is read atomically, so values are torn-free (though a mid-run
// reading is only weakly consistent across fields).
func (s *System) Stats() Stats {
	var out Stats
	for _, lp := range s.lps {
		out.Events += lp.kernel.Stats().Executed
		out.Nulls += atomic.LoadUint64(&lp.Nulls)
		out.Barriers += atomic.LoadUint64(&lp.Barriers)
		out.CrossPkts += atomic.LoadUint64(&lp.CrossPkts)
		out.Violations += atomic.LoadUint64(&lp.Violations)
		out.EITStalls += atomic.LoadUint64(&lp.EITStalls)
		out.ParkedArrivals += atomic.LoadUint64(&lp.ParkedArrivals)
		out.PostHorizonDrops += atomic.LoadUint64(&lp.PostHorizonDrops)
		out.Rollbacks += atomic.LoadUint64(&lp.Rollbacks)
		out.AntiMessages += atomic.LoadUint64(&lp.AntiMessages)
		out.RolledBackEvents += atomic.LoadUint64(&lp.RolledBackEvents)
		out.LazyCancelSaved += atomic.LoadUint64(&lp.LazyCancelSaved)
		out.Checkpoints += atomic.LoadUint64(&lp.Checkpoints)
		out.QuiescentSends += atomic.LoadUint64(&lp.QuiescentSends)
	}
	out.GVTAdvances = atomic.LoadUint64(&s.gvtAdvances)
	out.WindowShrinks = atomic.LoadUint64(&s.windowShrinks)
	out.WindowGrows = atomic.LoadUint64(&s.windowGrows)
	return out
}

// CollectMetrics implements metrics.Collector: counters sum across LPs,
// gauges report the worst LP. Safe to call mid-run (atomic reads).
func (s *System) CollectMetrics(e *metrics.Emitter) {
	e.Gauge("lps", int64(len(s.lps)))
	e.Counter("gvt_advances", atomic.LoadUint64(&s.gvtAdvances))
	e.Counter("window_shrinks", atomic.LoadUint64(&s.windowShrinks))
	e.Counter("window_grows", atomic.LoadUint64(&s.windowGrows))
	e.Gauge("speculation_window_ns", atomic.LoadInt64(&s.window))
	for _, lp := range s.lps {
		e.Counter("null_messages", atomic.LoadUint64(&lp.Nulls))
		e.Counter("barriers", atomic.LoadUint64(&lp.Barriers))
		e.Counter("cross_lp_packets", atomic.LoadUint64(&lp.CrossPkts))
		e.Counter("causality_violations", atomic.LoadUint64(&lp.Violations))
		e.Counter("eit_stalls", atomic.LoadUint64(&lp.EITStalls))
		e.Counter("parked_arrivals", atomic.LoadUint64(&lp.ParkedArrivals))
		e.Counter("post_horizon_drops", atomic.LoadUint64(&lp.PostHorizonDrops))
		e.Counter("rollbacks", atomic.LoadUint64(&lp.Rollbacks))
		e.Counter("anti_messages", atomic.LoadUint64(&lp.AntiMessages))
		e.Counter("rolled_back_events", atomic.LoadUint64(&lp.RolledBackEvents))
		e.Counter("checkpoints", atomic.LoadUint64(&lp.Checkpoints))
		e.Counter("lazy_cancel_saved", atomic.LoadUint64(&lp.LazyCancelSaved))
		e.Counter("quiescent_sends", atomic.LoadUint64(&lp.QuiescentSends))
		e.Gauge("inbox_high_water", atomic.LoadInt64(&lp.InboxHighWater))
		e.Gauge("max_horizon_ns", atomic.LoadInt64((*int64)(&lp.MaxHorizon)))
	}
}

// runBarrier executes all LPs to the horizon using time-stepped barrier
// synchronization — the other classic conservative algorithm. All LPs
// advance in lockstep windows of the global minimum lookahead; a barrier
// separates windows. Any message sent during window [t, t+d) carries a
// timestamp >= t+d (lookahead >= d), so delivering queued messages at the
// next window boundary preserves causality.
//
// Each LP runs on one worker goroutine for the whole run. A worker drains its
// inbox, executes its window, arrives at the barrier and waits there for the
// other LPs (LP.awaitWindow): it polls the shared arrival counter for a
// bounded number of scheduler yields, then parks until the last arrival
// wakes it. Nothing is spawned or allocated per window.
//
// Compared to null messages, barriers trade per-channel chatter for
// synchronization points whose count is horizon/lookahead — a different
// flavor of the same Figure 1 overhead.
func (s *System) runBarrier(end des.Time) {
	n := len(s.lps)
	for _, lp := range s.lps {
		lp.end = end
		lp.lastRecv = make([]des.Time, n)
		for _, o := range lp.outs {
			o.lastSent = 0 // per-run state, as in runNull
		}
		// Re-ingest arrivals parked past a previous segment's horizon, before
		// any window goroutine starts (as in runNull; the lastRecv bumps are
		// recorded but unused — the barrier protocol does not track promises).
		lp.resumeParked()
	}
	if n == 1 {
		s.lps[0].kernel.Run(end)
		return
	}
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
	b := newBarrier(n)
	var wg sync.WaitGroup
	for _, lp := range s.lps {
		wg.Add(1)
		go func(lp *LP) {
			defer wg.Done()
			var k int64
			for t := start; t < end; t += delta {
				horizon := t + delta
				if horizon > end {
					horizon = end
				}
				lp.drain(false)
				lp.maxHorizon(horizon)
				// Strictly below the window boundary: a message sent during
				// this window may be stamped exactly `horizon`, and it is only
				// guaranteed to have been ingested by the NEXT window's drain.
				// Deferring boundary events until the window strictly passes
				// them makes the committed order independent of message arrival
				// timing (the keyed heap orders all same-timestamp arrivals
				// identically).
				lp.kernel.RunBefore(horizon)
				atomic.AddUint64(&lp.Barriers, 1)
				k++
				lp.awaitWindow(b, k)
			}
		}(lp)
	}
	wg.Wait()
	// Final catch-up: messages sent during the last window carry timestamps
	// at or beyond `end`; deliveries stamped exactly `end` still execute and
	// may themselves emit cross-LP sends. A sequential drain-and-run here can
	// deadlock with a small inbox capacity (a later LP's catch-up send blocks
	// on an earlier, no-longer-consuming LP), so the catch-up runs all LPs
	// concurrently with live drainers, matching the null-message engine.
	s.finalCatchUp(end)
}

// barrierSpins is how many scheduler yields a barrier worker polls for the
// window release before it parks. Most releases come within a few
// microseconds, so polling spares them a park/wake round trip; the bound
// keeps a worker that waits on a slow LP from holding a core, and with more
// LPs than cores each yield hands the core to an LP still computing.
const barrierSpins = 200

// barrier releases runBarrier's windows. Window k is complete when the
// shared arrival counter reaches k·n. A worker that parks raises its parked
// flag first; the last arrival sends a token on the 1-slot wake channel of
// every parked worker. Waiters re-check the counter after any wake, so a
// stale token left from an earlier window is harmless.
type barrier struct {
	n       int64
	arrived atomic.Int64
	parked  []atomic.Bool
	wake    []chan struct{}
}

func newBarrier(n int) *barrier {
	b := &barrier{n: int64(n), parked: make([]atomic.Bool, n), wake: make([]chan struct{}, n)}
	for i := range b.wake {
		b.wake[i] = make(chan struct{}, 1)
	}
	return b
}

// awaitWindow arrives at the barrier for window k and returns once every LP
// has arrived. While it waits the LP keeps ingesting its inbox, so a neighbor
// still computing never blocks for good on a full inbox; the messages carry
// timestamps at or beyond the window's end, so they only schedule future
// events. The parked flag and the counter are a store-then-load pair on each
// side, so either the waiter sees the last arrival or the last arrival sees
// the flag: no wakeup is lost.
func (lp *LP) awaitWindow(b *barrier, k int64) {
	target := k * b.n
	if b.arrived.Add(1) == target {
		for i := range b.parked {
			if b.parked[i].Load() {
				select {
				case b.wake[i] <- struct{}{}:
				default:
				}
			}
		}
		return
	}
	for i := 0; i < barrierSpins; i++ {
		if b.arrived.Load() >= target {
			return
		}
		lp.drain(false)
		runtime.Gosched()
	}
	parked, wake := &b.parked[lp.id], b.wake[lp.id]
	for {
		parked.Store(true)
		if b.arrived.Load() >= target {
			parked.Store(false)
			return
		}
		select {
		case <-wake:
		case m := <-lp.inbox:
			lp.ingest(m)
		}
		parked.Store(false)
	}
}
