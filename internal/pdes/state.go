package pdes

import (
	"approxsim/internal/des"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

// StateSaver is the contract a component must satisfy to survive Time Warp
// rollbacks. SaveState returns a self-contained checkpoint of the component;
// RestoreState writes a previously saved checkpoint back into the live object
// IN PLACE (pointers other components hold must stay valid). A checkpoint may
// be restored more than once — cascading rollbacks reuse the same snapshot —
// so RestoreState must never hand out mutable internals of the saved value.
//
// netsim.Switch, netsim.Host, netsim.Port, and tcp.Stack implement this
// structurally without importing pdes.
type StateSaver interface {
	SaveState() any
	RestoreState(any)
}

// AddSaver registers a component whose state is checkpointed and rolled back
// together with the LP's kernel under Time Warp. Every device and protocol
// stack built on the LP's kernel must be registered, or rollbacks will
// resurrect events against stale state. No-op (but harmless) under the
// conservative engines.
func (lp *LP) AddSaver(s StateSaver) { lp.savers = append(lp.savers, s) }

// lpSnapshot is one Time Warp checkpoint of an LP: the kernel (clock, heap,
// counters), every registered saver's state, and the positions in the
// processed-input and output logs at the moment it was taken (absolute
// serials, so fossil collection can shift the slices under them).
type lpSnapshot struct {
	now          des.Time
	kstate       *des.KernelState
	blobs        []any
	processedEnd uint64
	outEnd       uint64
}

// savePacketCtx deep-copies a packet riding as event context so the
// checkpoint is insulated from per-hop mutation (Hops, TTL, ECN marks) of the
// live packet. Non-packet contexts pass through untouched.
func savePacketCtx(ctx any) any {
	if p, ok := ctx.(*packet.Packet); ok && p != nil {
		cp := *p
		return cp
	}
	return nil
}

// restorePacketCtx writes a checkpointed packet copy back into the same
// live packet object the pending event's closure captured.
func restorePacketCtx(ctx, blob any) {
	p, ok := ctx.(*packet.Packet)
	if !ok || p == nil {
		return
	}
	if cp, ok := blob.(packet.Packet); ok {
		*p = cp
	}
}

// takeSnapshot checkpoints the LP's entire rollback-relevant state.
func (lp *LP) takeSnapshot() *lpSnapshot {
	snap := &lpSnapshot{
		now:          lp.kernel.Now(),
		kstate:       lp.kernel.Snapshot(savePacketCtx),
		processedEnd: lp.tw.processedEnd(),
		outEnd:       lp.tw.outEnd(),
	}
	for _, s := range lp.savers {
		snap.blobs = append(snap.blobs, s.SaveState())
	}
	lp.count[Checkpoints].Add(1)
	if lp.buf.Enabled() {
		lp.buf.Emit(obs.Event{TS: snap.now, Ph: obs.PhInstant, Name: "checkpoint",
			Cat: "pdes", K1: "pending_events", V1: int64(lp.kernel.Pending())})
	}
	return snap
}

// restoreSnapshot rewinds kernel and savers to the checkpoint. The snapshot
// stays pristine and may be restored again.
func (lp *LP) restoreSnapshot(snap *lpSnapshot) {
	lp.kernel.Restore(snap.kstate, restorePacketCtx)
	for i, s := range lp.savers {
		s.RestoreState(snap.blobs[i])
	}
}
