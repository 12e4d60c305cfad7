package netsim

import (
	"sync/atomic"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// Device state capture for optimistic PDES rollback.
//
// Ports, switches, and hosts implement the pdes StateSaver contract
// (SaveState/RestoreState) structurally, without importing the pdes package.
// SaveState returns a self-contained value; RestoreState writes it back into
// the live object IN PLACE, so every pointer other components hold (the
// switch owning a port, the closure capturing a host) stays valid. A saved
// state may be restored more than once — cascading rollbacks reuse
// checkpoints — so RestoreState must never hand out mutable internals of the
// saved value itself.

// portState is a checkpoint of one Port.
type portState struct {
	// queue holds the queued packets BY VALUE. Queued packets are never
	// simultaneously captured by pending event closures (a packet is either
	// waiting in a queue or in flight on the wire, not both), so restoring
	// fresh copies cannot break aliasing with the event heap.
	queue       []packet.Packet
	queuedBytes int64
	busy        bool
	// busyUntil, txSize and phantom describe the packet on the wire; a
	// rollback can land between its transmit start and its tx-done. phantom
	// is the reserved seq of an unarmed tx-done, 0 when it is armed (the
	// kernel checkpoint holds the event) or the port is idle.
	busyUntil des.Time
	txSize    int64
	phantom   uint64
	stats     PortStats
}

// SaveState implements the pdes StateSaver contract for a port.
func (p *Port) SaveState() any {
	st := portState{queuedBytes: p.queuedBytes, busy: p.busy, busyUntil: p.busyUntil,
		txSize: p.txSize, phantom: p.phantom, stats: p.stats}
	if live := p.queue[p.qhead:]; len(live) > 0 {
		st.queue = make([]packet.Packet, len(live))
		for i, pkt := range live {
			st.queue[i] = *pkt
		}
	}
	return st
}

// RestoreState implements the pdes StateSaver contract for a port.
func (p *Port) RestoreState(v any) {
	st := v.(portState)
	p.queuedBytes, p.busy, p.busyUntil = st.queuedBytes, st.busy, st.busyUntil
	p.txSize, p.phantom, p.stats = st.txSize, st.phantom, st.stats
	clear(p.queue)
	p.queue, p.qhead = p.queue[:0], 0
	for i := range st.queue {
		q := st.queue[i] // copy; the checkpoint stays pristine
		p.queue = append(p.queue, &q)
	}
}

// switchState is a checkpoint of a Switch and all its ports.
type switchState struct {
	routeDrops uint64
	faultDrops uint64
	ports      []any
}

// SaveState implements the pdes StateSaver contract for a switch.
func (s *Switch) SaveState() any {
	st := switchState{routeDrops: s.RouteDrops, faultDrops: s.FaultDrops,
		ports: make([]any, len(s.ports))}
	for i, p := range s.ports {
		st.ports[i] = p.SaveState()
	}
	return st
}

// RestoreState implements the pdes StateSaver contract for a switch.
func (s *Switch) RestoreState(v any) {
	st := v.(switchState)
	atomic.StoreUint64(&s.RouteDrops, st.routeDrops)
	atomic.StoreUint64(&s.FaultDrops, st.faultDrops)
	for i, p := range s.ports {
		if i < len(st.ports) {
			p.RestoreState(st.ports[i])
		}
	}
}

// hostState is a checkpoint of a Host and its NIC.
type hostState struct {
	rxPackets uint64
	nic       any
}

// SaveState implements the pdes StateSaver contract for a host.
func (h *Host) SaveState() any {
	st := hostState{rxPackets: h.RxPackets}
	if h.nic != nil {
		st.nic = h.nic.SaveState()
	}
	return st
}

// RestoreState implements the pdes StateSaver contract for a host.
func (h *Host) RestoreState(v any) {
	st := v.(hostState)
	h.RxPackets = st.rxPackets
	if h.nic != nil && st.nic != nil {
		h.nic.RestoreState(st.nic)
	}
}
