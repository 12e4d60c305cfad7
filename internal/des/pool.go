package des

// Free-list event pool.
//
// The hot path of a packet-level simulation is event churn: every packet at
// every hop schedules (and frees) a handful of Event objects, so naive
// per-event allocation makes the garbage collector a first-order cost — the
// paper's Fig. 1 slowness restated as allocator pressure. The kernel therefore
// recycles Event structs through a per-kernel LIFO free list. A plain slice —
// not sync.Pool — keeps recycling deterministic (same workload, same object
// reuse order), invisible to the race detector (the list is owned by the
// kernel goroutine like the heap itself), and immune to GC-triggered drains.
//
// Ownership rules (see DESIGN.md "Event ownership under pooling"):
//
//   - The kernel owns every event on the heap. Once an event has fired or
//     been canceled, its object may be recycled and reused by a later
//     Schedule/At call with a bumped generation counter.
//   - A handle returned by Schedule is valid until the event fires or is
//     canceled; after that it is dead. The timer idiom (cancel-then-rearm,
//     nil the handle when it fires) is safe because Cancel on an event that
//     is no longer in the heap is a no-op (its index is -1).
//   - Holders that must detect reuse (the Time Warp processed log) record
//     Gen() at schedule time and treat a mismatch as "the original is gone".
//   - Events captured by a Snapshot are pinned: Restore writes fields back
//     into the same objects, so recycling them would corrupt the checkpoint.
//     Snapshot marks every pending event `snapped`, and release refuses to
//     recycle snapped events forever (they fall back to the garbage
//     collector — a pool-miss-rate cost paid only by checkpointing runs).

// alloc returns an event object for scheduling, reusing a pooled one when
// available; the caller fills in every scheduling field.
func (k *Kernel) alloc() *Event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		k.phit++
		e.canceled, e.pooled = false, false
		return e
	}
	k.pmiss++
	return &Event{}
}

// release drops an event that has left the heap (fired or canceled) and
// returns it to the free list. Snapshot-pinned events are never recycled: a
// Restore must find them intact. The generation counter is bumped so stale
// handles (Gen recorded at schedule time) observably mismatch, and under
// -tags pooldebug the object is poisoned so any use blows up loudly.
func (k *Kernel) release(e *Event) {
	e.fn, e.fnCtx, e.ctx = nil, nil, nil
	if e.snapped {
		return
	}
	e.gen++
	// canceled is left as-is (alloc resets it on reuse): a handle held past a
	// cancellation keeps answering Canceled() truthfully until the object is
	// actually reincarnated.
	e.pooled = true
	poisonEvent(e)
	k.free = append(k.free, e)
}
