package pdes

import (
	"fmt"

	"approxsim/internal/des"
)

// Whole-system checkpoint/restore for scenario forking.
//
// A warmed (or merely built) System can be checkpointed once and restored
// many times: each restore rewinds every LP's kernel (clock, heap, counters)
// and every registered saver (switches, hosts, ports, TCP stacks) to the
// checkpoint, after which Run produces bit-identical committed results to a
// cold start of the same configuration. This is the snapshot layer Time Warp
// uses for rollback (state.go), promoted to a system-wide primitive so a
// scenario service can fork one baseline into many what-if variants instead
// of rebuilding and replaying the common prefix per variant.
//
// The contract mirrors lpSnapshot's: state is written back IN PLACE into the
// same kernel Event and device objects (handle identity is load-bearing — see
// des.Kernel.Restore), and the checkpoint stays pristine across restores.

// SystemState is a whole-system checkpoint taken at quiescence: before the
// first Run, or after a Run has returned. It must never be taken mid-run.
type SystemState struct {
	lps []forkLPState
}

// forkLPState is one LP's share of a SystemState.
type forkLPState struct {
	kstate *des.KernelState
	blobs  []any
	// parked mirrors LP.parked at the checkpoint — the cross-LP packets in
	// flight past the warm horizon. Losing them is exactly the bug that made
	// warm multi-LP forking unsound, so they are first-class checkpoint
	// state. parkedCtx holds the savePacketCtx deep copy of each parked
	// packet's contents (Hops, TTL, ECN marks), rewound into the SAME packet
	// object on restore — handle identity stays load-bearing, matching the
	// kernel-heap packet contract.
	parked    []message
	parkedCtx []any
}

// At returns the virtual time of the checkpoint (the minimum kernel clock
// across LPs; at quiescence all clocks agree).
func (st *SystemState) At() des.Time {
	min := des.MaxTime
	for _, l := range st.lps {
		if t := l.kstate.Now(); t < min {
			min = t
		}
	}
	if min == des.MaxTime {
		return 0
	}
	return min
}

// Checkpoint captures the entire system — every LP's kernel, every registered
// saver, and every parked in-flight cross-LP packet — at quiescence. Only the
// conservative engines support it:
// Time Warp owns the snapshot machinery for its own rollback protocol, and a
// restored optimistic run would also need its processed/output logs rewound.
func (s *System) Checkpoint() (*SystemState, error) {
	if s.cfg.algo == TimeWarp {
		return nil, fmt.Errorf("pdes: Checkpoint supports the conservative engines only (got timewarp)")
	}
	st := &SystemState{lps: make([]forkLPState, 0, len(s.lps))}
	for _, lp := range s.lps {
		fs := forkLPState{kstate: lp.kernel.Snapshot(savePacketCtx)}
		for _, sv := range lp.savers {
			fs.blobs = append(fs.blobs, sv.SaveState())
		}
		if len(lp.parked) > 0 {
			fs.parked = append([]message(nil), lp.parked...)
			fs.parkedCtx = make([]any, len(lp.parked))
			for i, m := range lp.parked {
				fs.parkedCtx[i] = savePacketCtx(m.pkt)
			}
		}
		st.lps = append(st.lps, fs)
	}
	return st, nil
}

// Restore rewinds the system to a checkpoint taken by Checkpoint on this same
// system. After it returns, Run re-executes from the checkpoint's virtual
// time and commits results bit-identical to a fresh build run to the same
// horizon (the fork determinism tests prove this). The checkpoint stays
// pristine and may be restored again.
//
// Restore must only be called at quiescence. Sync-protocol counters (nulls,
// stalls, cross-LP packets) are NOT rewound — they account machinery, not
// simulation state; diff Stats() around a forked run via Stats.Sub. Kernel
// event counters and device/TCP counters ARE part of the checkpoint.
func (s *System) Restore(st *SystemState) error {
	if s.cfg.algo == TimeWarp {
		return fmt.Errorf("pdes: Restore supports the conservative engines only (got timewarp)")
	}
	if len(st.lps) != len(s.lps) {
		return fmt.Errorf("pdes: checkpoint has %d LPs, system has %d", len(st.lps), len(s.lps))
	}
	for i, lp := range s.lps {
		if len(st.lps[i].blobs) != len(lp.savers) {
			return fmt.Errorf("pdes: LP %d checkpoint has %d savers, live LP has %d",
				i, len(st.lps[i].blobs), len(lp.savers))
		}
		// Every Run leaves the inboxes empty (see runConservative); a message
		// here is in-flight traffic the fork would silently lose.
		if n := len(lp.inbox); n > 0 {
			return fmt.Errorf("pdes: LP %d inbox holds %d messages; Restore needs a quiesced system", i, n)
		}
	}
	for i, lp := range s.lps {
		fs := &st.lps[i]
		lp.kernel.Restore(fs.kstate, restorePacketCtx)
		for j, sv := range lp.savers {
			sv.RestoreState(fs.blobs[j])
		}
		// Per-run channel state: promises made during a previous run exceed
		// anything the restored run will re-announce, so they must be
		// forgotten (runConservative also resets them at run entry; doing it
		// here keeps a restored system consistent even before Run). The other
		// mirrored per-run state needs no rewind here: lastRecv is reallocated
		// and re-seeded from the (restored) kernel clocks at every Run entry,
		// so stale promises cannot leak across a restore.
		for _, o := range lp.outs {
			o.lastSent = 0
		}
		// Parked in-flight packets are simulation state, not machinery: rewind
		// the buffer to the checkpoint, discarding anything parked since. The
		// restored entries alias the checkpoint's packet objects (the same
		// pointers the warm run shipped), with contents rewound from the deep
		// copies; a fresh slice keeps the checkpoint pristine across restores.
		lp.parked = append([]message(nil), fs.parked...)
		for j, m := range fs.parked {
			restorePacketCtx(m.pkt, fs.parkedCtx[j])
		}
	}
	return nil
}
