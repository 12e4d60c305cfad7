package pdes

import (
	"math"
	"sort"
	"sync"

	"approxsim/internal/des"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

// Time Warp (Jefferson 1985): optimistic synchronization. Where the
// conservative engines block until neighbors promise nothing earlier can
// arrive, Time Warp LPs execute speculatively past their input guarantees,
// checkpoint their state, and repair mistakes after the fact: a straggler —
// a message stamped in the LP's executed past — triggers a rollback to the
// latest checkpoint before the straggler, and anti-messages chase down and
// annihilate the speculative output the undone events produced. A periodic
// Mattern-style GVT computation (gvt.go) lower-bounds the timestamp of any
// future message, which bounds how far anything can roll back and lets old
// checkpoints be fossil-collected.
//
// Rollback uses coasting forward: after restoring the checkpoint, events
// strictly before the straggler are re-executed with cross-LP sends
// suppressed — those messages were already sent, remain valid, and stay in
// the output log. Only output generated at or after the straggler's
// timestamp is annihilated. This keeps every in-flight message (positive or
// anti) stamped at or above GVT, which is what guarantees a rollback target
// always exists. The coast replays from the same kernel clock, counters, and
// event seqs, so it reproduces the original execution except in one corner:
// inputs re-ingested during requeue draw fresh tie-break seqs, so two events
// at the exact same nanosecond can replay in a different order than they
// first executed. Distinct timestamps — the overwhelmingly common case in a
// bandwidth/delay-driven network — replay identically.

// Control-message kinds for the GVT protocol (twMsg.ctrl).
const (
	twCtrlNone = iota
	twCtrlPhase1
	twCtrlPhase2
)

// twMsg is one Time Warp message: a packet delivery (possibly negative — an
// anti-message cancelling a prior positive), or a GVT control message.
type twMsg struct {
	from int
	seq  uint64 // per (sender, receiver) pair; pairs (from, seq) identify messages
	at   des.Time
	// orig is the pristine packet contents, restored into a fresh object at
	// every (re)ingestion so per-hop mutation of a speculative delivery never
	// leaks into a replay.
	orig packet.Packet
	// via is the proxy that shipped the packet: its key orders the delivery
	// event by transmitting device — same-timestamp arrivals commit in
	// transmitter order regardless of message arrival interleaving — and its
	// deliver handler is the event's pre-bound function.
	via *proxy
	neg bool // anti-message: annihilate the matching positive
	// color is the Mattern round parity the message was sent under; ctrl
	// carries the GVT phase (twCtrl*) for coordinator messages, for which
	// color is the new parity to adopt.
	color int
	ctrl  int
}

// twEntry is one ingested positive message: the live packet object its
// delivery closure captured, the event handle, and the annihilation
// tombstone. Entries keep their position in the processed log so snapshots
// can refer to them by absolute serial (procBase + index).
//
// gen is the event object's pool incarnation (des.Event.Gen) at the moment
// the handle was taken. The kernel recycles event objects once they fire, so
// ev alone cannot distinguish "this delivery is still pending" from "the
// delivery fired and the object now belongs to an unrelated event": the
// entry's handle is only usable while ev.Gen() == gen.
type twEntry struct {
	m           twMsg
	pkt         *packet.Packet
	ev          *des.Event
	gen         uint64
	annihilated bool
}

// pending reports whether the entry's delivery event is still the same
// incarnation and still live — i.e. cancelable through the handle. A gen
// mismatch means the delivery executed and the object was recycled.
func (e *twEntry) pending() bool { return e.ev.Gen() == e.gen && e.ev.Live() }

// twSent is one output-log record: enough to send the matching anti-message.
// sendAt is the sender's virtual time at emission; the log is sorted by it.
type twSent struct {
	to     *LP
	sendAt des.Time
	m      twMsg
}

// lpTW is the per-LP Time Warp state. The inbox (box) is unbounded and
// cond-based — optimistic senders never block, and rollback anti-message
// bursts must not deadlock against a busy receiver.
type lpTW struct {
	shared *twShared

	mu   sync.Mutex
	cond *sync.Cond
	box  []twMsg // landing zone; swapped out whole by take()

	color   int      // Mattern color of this LP's sends (flipped at phase 1)
	minSent des.Time // min timestamp sent since the last phase-1 flip

	// postQ holds positives stamped beyond the run horizon: they can never
	// execute in this run but must stay visible (an anti may still arrive,
	// and their timestamps participate in GVT).
	postQ []twMsg

	processed []twEntry // ingested positives, in ingestion order
	procBase  uint64    // absolute serial of processed[0]
	outLog    []twSent  // cross-LP sends, in send order
	outBase   uint64    // absolute serial of outLog[0]

	// lazyQ holds output records cut from outLog by a rollback under lazy
	// cancellation, sorted by sendAt: instead of anti-messaging immediately,
	// the LP re-executes and checks whether it regenerates the identical
	// message (it usually does — most rollbacks only reorder local state). A
	// regenerated match moves the record back to outLog without any network
	// traffic; records the re-execution has passed without regenerating
	// (sendAt below the LP clock, or below GVT) are flushed as anti-messages.
	// Flushing early is always safe — it just degrades to aggressive
	// cancellation for that record.
	lazyQ []twSent

	sendSeq []uint64 // per-destination send counter; never rolled back

	snaps     []*lpSnapshot // checkpoints, oldest first
	sinceCkpt int
	coasting  bool // suppress sends: replaying already-sent output
	fossilGvt des.Time
}

func newLPTW(n int, shared *twShared) *lpTW {
	t := &lpTW{shared: shared, minSent: des.MaxTime, sendSeq: make([]uint64, n)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *lpTW) processedEnd() uint64 { return t.procBase + uint64(len(t.processed)) }
func (t *lpTW) outEnd() uint64       { return t.outBase + uint64(len(t.outLog)) }

// deliver appends m to the inbox and wakes the LP. For payload messages the
// transit counter is decremented only after the append, so once the
// coordinator observes zero transit every such message is visible in some
// inbox — the invariant the Mattern cut relies on.
func (t *lpTW) deliver(m twMsg) {
	t.mu.Lock()
	t.box = append(t.box, m)
	t.mu.Unlock()
	if m.ctrl == twCtrlNone {
		t.shared.transit[m.color].Add(-1)
	}
	t.cond.Signal()
}

// twSend stamps m with the LP's current color, folds it into the GVT
// accounting, and delivers it. Called only from the LP's own goroutine.
func (lp *LP) twSend(to *LP, m twMsg) {
	t := lp.tw
	m.color = t.color
	if m.at < t.minSent {
		t.minSent = m.at
	}
	t.shared.transit[m.color].Add(1)
	to.tw.deliver(m)
}

// twEmit ships a packet across an LP boundary under Time Warp: log it (for
// the anti-message), then send. During coast-forward the send is suppressed
// entirely — the original message from the first execution is still valid
// and still logged.
func (lp *LP) twEmit(via *proxy, at des.Time, pkt *packet.Packet) {
	t := lp.tw
	to := via.out.to
	if t.coasting {
		return
	}
	lp.count[CrossPkts].Add(1)
	now := lp.kernel.Now()
	if len(t.lazyQ) > 0 && !twDisableLazyMatch {
		// Lazy cancellation, the payoff side: if this re-execution reproduces
		// a message the rollback provisionally cancelled — same destination,
		// timestamp, and pristine packet contents — the original positive is
		// still correct at the receiver and neither an anti-message nor a
		// re-send is needed. The record just moves back to the output log.
		//
		// Ordering constraint: the receiver delivers same-timestamp arrivals in
		// ingestion order, and a reclaimed record keeps its ORIGINAL ingestion
		// position — before anything this re-execution sends afresh. A reclaim
		// is therefore only sound for the FIRST surviving record of its
		// (receiver, arrival-time) group: matching a later record, or keeping
		// earlier ones around past a fresh send, would commit a delivery order
		// different from the committed emission order. On the first mismatch
		// the whole group is flushed as anti-messages (degrading to aggressive
		// cancellation for this instant) and the send proceeds fresh.
		lp.twFlushLazy()
		for i := 0; i < len(t.lazyQ); i++ {
			s := &t.lazyQ[i]
			if s.sendAt > now {
				break // sorted; nothing at this instant beyond here
			}
			if s.to != to || s.m.at != at {
				continue
			}
			if s.m.via == via && s.m.orig == *pkt {
				lp.count[LazyCancelSaved].Add(1)
				t.outLog = append(t.outLog, *s)
				t.lazyQ = append(t.lazyQ[:i], t.lazyQ[i+1:]...)
				return
			}
			// First surviving record for (to, at) does not match what the
			// re-execution emits: annihilate the entire group before sending.
			for j := i; j < len(t.lazyQ); {
				g := &t.lazyQ[j]
				if g.sendAt > now {
					break
				}
				if g.to != to || g.m.at != at {
					j++
					continue
				}
				a := g.m
				a.neg = true
				lp.count[AntiMessages].Add(1)
				lp.twSend(g.to, a)
				t.lazyQ = append(t.lazyQ[:j], t.lazyQ[j+1:]...)
			}
			break
		}
	}
	t.sendSeq[to.id]++
	m := twMsg{from: lp.id, seq: t.sendSeq[to.id], at: at, orig: *pkt, via: via}
	t.outLog = append(t.outLog, twSent{to: to, sendAt: now, m: m})
	lp.twSend(to, m)
}

// twFlushLazy sends the anti-messages for lazy-queue records the LP can no
// longer regenerate: the clock has passed their send time without twEmit
// matching them, or GVT has (no event below GVT will ever execute again).
// Called from the LP goroutine only.
func (lp *LP) twFlushLazy() {
	t := lp.tw
	if len(t.lazyQ) == 0 {
		return
	}
	floor := lp.kernel.Now()
	if gvt := des.Time(t.shared.gvt.Load()); gvt > floor {
		floor = gvt
	}
	n := 0
	for n < len(t.lazyQ) && t.lazyQ[n].sendAt < floor {
		n++
	}
	if n == 0 {
		return
	}
	for _, s := range t.lazyQ[:n] {
		a := s.m
		a.neg = true
		lp.count[AntiMessages].Add(1)
		lp.twSend(s.to, a)
	}
	t.lazyQ = t.lazyQ[n:]
}

// twLazyFlushable reports whether the head of the lazy queue is overdue —
// part of take's wake predicate, because an idle LP sitting on unflushed
// records would pin GVT (their timestamps participate in twLocalMin) without
// ever waking to release them.
func (lp *LP) twLazyFlushable() bool {
	t := lp.tw
	if len(t.lazyQ) == 0 {
		return false
	}
	head := t.lazyQ[0].sendAt
	return head < lp.kernel.Now() || head < des.Time(t.shared.gvt.Load())
}

// twLimit is how far this LP may speculate: GVT plus the configured window,
// capped at the horizon.
func (lp *LP) twLimit() des.Time {
	gvt := des.Time(lp.tw.shared.gvt.Load())
	limit := gvt + lp.sys.cfg.window
	if limit < gvt || limit > lp.end {
		limit = lp.end
	}
	return limit
}

// twRunnable reports whether the kernel has a live event inside the
// speculation window. Called with tw.mu held (the kernel itself is only
// ever touched by the LP goroutine).
func (lp *LP) twRunnable() bool {
	nt, ok := lp.kernel.NextEventTime()
	return ok && nt <= lp.twLimit()
}

// take swaps out the inbox, blocking while there is neither input nor
// runnable work. Wakeups come from deliver, from the coordinator's broadcast
// after publishing a new GVT or termination, and from a metrics collection,
// which needs the LP at the safepoint atop twLoop.
func (t *lpTW) take(lp *LP) []twMsg {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.box) == 0 && !t.shared.done.Load() && !lp.twRunnable() && !lp.twLazyFlushable() &&
		!lp.sys.gate.req.Load() {
		t.cond.Wait()
	}
	lp.inboxDepth(len(t.box))
	batch := t.box
	t.box = nil
	return batch
}

// twLoop is the LP main loop under Time Warp: absorb messages, speculate a
// bounded batch of events, checkpoint, fossil-collect, repeat.
func (lp *LP) twLoop() {
	t := lp.tw
	sh := t.shared
	every := lp.sys.cfg.checkpointEvery
	for {
		lp.safepoint()
		batch := t.take(lp)
		for i := 0; i < len(batch); i++ {
			m := batch[i]
			switch {
			case m.ctrl == twCtrlPhase1:
				t.color = m.color
				t.minSent = des.MaxTime
				sh.resp <- twReport{phase: 1}
			case m.ctrl == twCtrlPhase2:
				sh.resp <- twReport{phase: 2, min: lp.twLocalMin(batch[i+1:]),
					rollbacks: lp.count[Rollbacks].Load()}
			case m.neg:
				lp.twHandleAnti(m)
			default:
				lp.twHandlePositive(m)
			}
		}
		if sh.done.Load() {
			return
		}
		ran := lp.kernel.RunLimit(lp.twLimit(), every)
		lp.maxHorizon(lp.kernel.Now())
		if ran > 0 {
			t.sinceCkpt += ran
			if t.sinceCkpt >= every {
				t.snaps = append(t.snaps, lp.takeSnapshot())
				t.sinceCkpt = 0
			}
		}
		lp.twFlushLazy()
		lp.twFossil(des.Time(sh.gvt.Load()))
	}
}

// twHandlePositive ingests a packet delivery, rolling back first when the
// message lands in this LP's executed past (a straggler).
func (lp *LP) twHandlePositive(m twMsg) {
	if m.at > lp.end {
		lp.tw.postQ = append(lp.tw.postQ, m)
		return
	}
	// An arrival at EXACTLY the current clock is also a straggler: RunLimit
	// never idle-advances, so now == m.at means some event at m.at already
	// executed — and the keyed heap order (band, transmitter key) is only the
	// committed order if every same-timestamp event is in the heap together.
	// Rolling back re-executes the whole instant in keyed order, making the
	// committed sequence independent of message arrival timing.
	if now := lp.kernel.Now(); m.at <= now {
		if lp.buf.Enabled() {
			// The straggler marker lands at the message's own timestamp — in
			// the LP's executed past — which is what makes a flight-recorder
			// dump read causally: the straggler appears amid the speculative
			// events it is about to undo.
			lp.buf.Emit(obs.Event{TS: m.at, Ph: obs.PhInstant, Name: "straggler",
				Cat: "pdes", K1: "late_ns", V1: int64(now - m.at), K2: "from_lp", V2: int64(m.from)})
		}
		lp.twRollback(m.at)
	}
	lp.twIngest(m)
}

// twIngest schedules the delivery event from a fresh copy of the pristine
// packet and appends the processed-log entry.
func (lp *LP) twIngest(m twMsg) {
	pkt := new(packet.Packet)
	*pkt = m.orig
	// Band 1, keyed by transmitter, matches the conservative ingest path:
	// arrivals order after same-timestamp local events and same-timestamp
	// arrivals order by transmitting device in every engine (see LP.ingest).
	ev := lp.kernel.AtCtxFn(m.at, 1, m.via.key, pkt, m.via.deliver)
	lp.tw.processed = append(lp.tw.processed, twEntry{m: m, pkt: pkt, ev: ev, gen: ev.Gen()})
}

// twHandleAnti annihilates the matching positive. Three cases: still parked
// beyond the horizon (drop both), ingested but not yet executed (cancel the
// event), or already executed (roll back to before it ever happened). The
// per-pair FIFO of deliver guarantees the positive always arrives first, and
// fossil collection never discards a positive that could still be cancelled
// (its timestamp would have to be under GVT, which no in-flight anti can be).
func (lp *LP) twHandleAnti(m twMsg) {
	t := lp.tw
	for i := range t.postQ {
		if t.postQ[i].from == m.from && t.postQ[i].seq == m.seq {
			t.postQ = append(t.postQ[:i], t.postQ[i+1:]...)
			return
		}
	}
	for i := len(t.processed) - 1; i >= 0; i-- {
		e := &t.processed[i]
		if e.m.from != m.from || e.m.seq != m.seq {
			continue
		}
		if e.annihilated {
			return
		}
		e.annihilated = true
		if e.pending() {
			lp.kernel.Cancel(e.ev)
		} else {
			lp.twRollback(m.at)
		}
		return
	}
	panic("pdes: anti-message with no matching positive")
}

// twRollback rewinds the LP to just before virtual time `at`: restore the
// latest checkpoint strictly earlier, undo the bookkeeping, cancel the
// speculative output sent at or after `at` with anti-messages, and coast
// forward (sends suppressed) to the instant before the straggler.
func (lp *LP) twRollback(at des.Time) {
	t := lp.tw
	idx := -1
	for i := len(t.snaps) - 1; i >= 0; i-- {
		if t.snaps[i].now < at {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Cannot happen while GVT is sound: fossil collection always keeps
		// one checkpoint below GVT, and no in-flight timestamp is below GVT.
		panic("pdes: time warp rollback with no checkpoint before straggler")
	}
	snap := t.snaps[idx]
	undone := lp.kernel.Stats().Executed - snap.kstate.Executed()
	lp.count[Rollbacks].Add(1)
	lp.count[RolledBackEvents].Add(undone)
	if lp.buf.Enabled() {
		lp.buf.Emit(obs.Event{TS: lp.kernel.Now(), Ph: obs.PhInstant, Name: "rollback",
			Cat: "pdes", K1: "to_ns", V1: int64(snap.now), K2: "undone_events", V2: int64(undone)})
	}
	lp.restoreSnapshot(snap)

	// The restored heap resurrects any event that was pending at checkpoint
	// time — including positives annihilated since. Re-cancel those. Events
	// resurrected by Restore are exactly the snapshot-pinned objects (never
	// recycled), so a gen mismatch here reliably means "not in the restored
	// heap" rather than "reused object that happens to look live".
	for i := 0; i < int(snap.processedEnd-t.procBase); i++ {
		if e := &t.processed[i]; e.annihilated && e.pending() {
			lp.kernel.Cancel(e.ev)
		}
	}
	// Inputs ingested after the checkpoint vanished with the restore;
	// re-ingest the survivors from their pristine contents.
	for i := int(snap.processedEnd - t.procBase); i < len(t.processed); i++ {
		e := &t.processed[i]
		if e.annihilated {
			continue
		}
		*e.pkt = e.m.orig
		e.ev = lp.kernel.AtCtxFn(e.m.at, 1, e.m.via.key, e.pkt, e.m.via.deliver)
		e.gen = e.ev.Gen()
	}
	t.snaps = t.snaps[:idx+1]

	// Output sent at or after the straggler is suspect; output sent before it
	// stays valid (the coast below regenerates — and suppresses — exactly it).
	// Cancellation is lazy: the suspect records move to the lazy queue, the
	// upcoming re-execution usually regenerates them verbatim (twEmit matches
	// them back into the output log), and only the ones it does not are
	// eventually flushed as anti-messages (twFlushLazy).
	cut := len(t.outLog)
	for cut > 0 && t.outLog[cut-1].sendAt >= at {
		cut--
	}
	if len(t.outLog) > cut {
		had := len(t.lazyQ) > 0
		t.lazyQ = append(t.lazyQ, t.outLog[cut:]...)
		if had {
			// Records from an earlier rollback may interleave with this cut;
			// both runs are individually sorted by sendAt, so a stable sort
			// is a deterministic merge.
			sort.SliceStable(t.lazyQ, func(i, j int) bool {
				return t.lazyQ[i].sendAt < t.lazyQ[j].sendAt
			})
		}
	}
	t.outLog = t.outLog[:cut]

	t.coasting = true
	lp.kernel.RunLimit(at-1, math.MaxInt)
	t.coasting = false
}

// twLocalMin is this LP's contribution to the GVT cut: the minimum over its
// next unexecuted event, every unprocessed payload message (the rest of the
// current batch, the inbox, the post-horizon queue), and the timestamps it
// has sent since the color flip.
func (lp *LP) twLocalMin(rest []twMsg) des.Time {
	t := lp.tw
	min := t.minSent
	if nt, ok := lp.kernel.NextEventTime(); ok && nt < min {
		min = nt
	}
	for _, m := range rest {
		if m.ctrl == twCtrlNone && m.at < min {
			min = m.at
		}
	}
	for _, m := range t.postQ {
		if m.at < min {
			min = m.at
		}
	}
	// Unflushed lazy-queue records will become anti-messages stamped m.at;
	// they must hold GVT down until they are either matched or flushed.
	for i := range t.lazyQ {
		if t.lazyQ[i].m.at < min {
			min = t.lazyQ[i].m.at
		}
	}
	t.mu.Lock()
	for _, m := range t.box {
		if m.ctrl == twCtrlNone && m.at < min {
			min = m.at
		}
	}
	t.mu.Unlock()
	return min
}

// twFossil discards history that GVT has made unreachable: checkpoints below
// GVT (except the newest such — the guaranteed rollback target), processed
// entries that can no longer be rolled back or annihilated, and output-log
// records no surviving checkpoint could ever cancel. Annihilated entries pin
// collection while any surviving checkpoint might resurrect their event.
func (lp *LP) twFossil(gvt des.Time) {
	t := lp.tw
	if gvt <= t.fossilGvt {
		return
	}
	t.fossilGvt = gvt
	idx := 0
	for i := len(t.snaps) - 1; i >= 0; i-- {
		if t.snaps[i].now < gvt {
			idx = i
			break
		}
	}
	t.snaps = t.snaps[idx:]
	keep := t.snaps[0]
	drop := 0
	for drop < len(t.processed) && t.procBase+uint64(drop) < keep.processedEnd &&
		!t.processed[drop].annihilated && t.processed[drop].m.at < gvt {
		drop++
	}
	if drop > 0 {
		t.processed = t.processed[drop:]
		t.procBase += uint64(drop)
	}
	if dropOut := int(keep.outEnd - t.outBase); dropOut > 0 {
		t.outLog = t.outLog[dropOut:]
		t.outBase = keep.outEnd
	}
}

// twDisableLazyMatch is a test-only switch: when set, rolled-back output still
// flows through the lazy queue but twEmit never reclaims a record, so every
// record is eventually flushed as an anti-message — aggressive cancellation
// with delayed delivery. Used to bisect lazy-cancellation failures.
var twDisableLazyMatch bool
