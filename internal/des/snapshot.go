package des

// Kernel snapshot/restore: the state-saving hooks the optimistic (Time Warp)
// PDES engine and the snapshot-fork pool are built on.
//
// A snapshot records the kernel's clock, counters, and every pending event's
// fields. Restore writes those fields back INTO THE SAME Event objects and
// rebuilds the heap from the saved pointer array. Restoring in place (rather
// than allocating fresh events) is what keeps outstanding handles valid: a
// TCP connection that stashed its retransmission-timer *Event before the
// snapshot still points at a live, correctly-armed event after a rollback,
// and canceling through that handle affects the event actually in the heap.
//
// Closures are opaque, so the kernel cannot deep-copy the mutable objects
// they capture. Events that refer to a mutable object attach it as the event
// context (AtCtxFn); Snapshot calls saveCtx for each context so the
// caller can record its contents, and Restore calls restoreCtx to write them
// back. The PDES engine uses this to checkpoint in-flight packets, whose
// header fields are mutated hop by hop.

// savedEvent is one pending event's checkpointed fields.
type savedEvent struct {
	ev      *Event
	at      Time
	band    uint8
	key     uint64
	seq     uint64
	fn      func()
	fnCtx   func(any)
	ctx     any
	ctxBlob any
}

// KernelState is an opaque checkpoint of a kernel, produced by Snapshot.
// It stays valid across multiple Restores (rolling back twice to the same
// checkpoint is the normal cascade pattern in Time Warp).
type KernelState struct {
	now    Time
	seq    uint64
	cur    uint64 // the order cursor's seq (see Kernel.Passed)
	nexec  uint64
	nsched uint64
	ncanc  uint64
	events []savedEvent
}

// Now returns the virtual time at which the snapshot was taken.
func (s *KernelState) Now() Time { return s.now }

// Executed returns the executed-event counter at snapshot time.
func (s *KernelState) Executed() uint64 { return s.nexec }

// Snapshot checkpoints the kernel between events. saveCtx (may be nil) is
// invoked for each pending event that carries a context and must return a
// value from which restoreCtx can later reconstruct the context's contents.
// The kernel must be quiescent (not inside Run/Step) when called.
func (k *Kernel) Snapshot(saveCtx func(ctx any) any) *KernelState {
	st := &KernelState{
		now: k.now, seq: k.seq, cur: k.cur,
		nexec: k.nexec, nsched: k.nsched, ncanc: k.ncanc,
		events: make([]savedEvent, len(k.heap)),
	}
	// The heap array is saved in heap order: it is already a valid binary
	// heap, so Restore can reinstate it without re-heapifying.
	for i, e := range k.heap {
		// Pin the event out of the free list: this KernelState now holds the
		// pointer and Restore will write fields back into the object, so it
		// must never be reused for an unrelated event. The pin is sticky for
		// the object's lifetime — cheap insurance, paid only on events that
		// were pending at a checkpoint instant.
		e.snapped = true
		checkNotPooled(e, "Snapshot")
		se := savedEvent{ev: e, at: e.at, band: e.band, key: e.key, seq: e.seq,
			fn: e.fn, fnCtx: e.fnCtx, ctx: e.ctx}
		if e.ctx != nil && saveCtx != nil {
			se.ctxBlob = saveCtx(e.ctx)
		}
		st.events[i] = se
	}
	return st
}

// Restore rolls the kernel back to st: clock, counters, and the event heap
// exactly as they were, with every saved event's fields written back into the
// original Event object — an event canceled since the snapshot is pending
// again. Events scheduled after the snapshot simply vanish (they are absent
// from the saved heap). restoreCtx (may be nil) is invoked with each saved
// event context and the blob saveCtx produced for it.
func (k *Kernel) Restore(st *KernelState, restoreCtx func(ctx, blob any)) {
	k.now = st.now
	k.seq = st.seq
	k.cur = st.cur
	// Counters shrink here by design: rolled-back work is un-counted (a
	// sampler must tolerate non-monotone readings from optimistic runs — see
	// obs.Sampler).
	k.nexec, k.nsched, k.ncanc = st.nexec, st.nsched, st.ncanc
	// Events scheduled after the snapshot drop out of the heap here. They are
	// NOT recycled: a later (now discarded) snapshot may still pin them, and
	// dangling references in rolled-back bookkeeping must keep reading them
	// as dead — index -1, so Live is false and Cancel is a no-op — so they
	// fall to the garbage collector.
	for i, e := range k.heap {
		e.index = -1
		k.heap[i] = nil
	}
	k.heap = k.heap[:0]
	for i := range st.events {
		se := &st.events[i]
		e := se.ev
		e.at, e.band, e.key, e.seq = se.at, se.band, se.key, se.seq
		e.fn, e.fnCtx, e.ctx = se.fn, se.fnCtx, se.ctx
		e.canceled = false
		e.index = i
		if se.ctx != nil && restoreCtx != nil {
			restoreCtx(se.ctx, se.ctxBlob)
		}
		k.heap = append(k.heap, e)
	}
	if n := len(k.heap); n > k.heapHW {
		k.heapHW = n
	}
	k.publish()
}

// RunLimit executes up to max events with timestamps <= until and returns
// how many ran. Unlike Run it never advances the clock past the last
// executed event: idle virtual time is not consumed, so a later Restore/
// rollback decision can compare message timestamps against the time of real
// executed work only. This is the stepping primitive of the optimistic PDES
// engine, which must surface between batches to poll its message queues.
func (k *Kernel) RunLimit(until Time, max int) int {
	ran := 0
	for ran < max && len(k.heap) > 0 && k.heap[0].at <= until {
		k.Step()
		ran++
	}
	k.publish()
	return ran
}
