// Package netsim implements the packet-level network devices of the
// full-fidelity simulator: duplex links with exact serialization and
// propagation delay, drop-tail output queues with optional ECN marking,
// store-and-forward switches, and end hosts.
//
// The modeling granularity deliberately matches what the paper used
// (OMNeT++/INET): every packet is individually enqueued, serialized at link
// rate, propagated, and processed hop by hop, so the event count per packet
// per hop — the quantity approximation later removes — is realistic.
package netsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

// Device is anything that can terminate a link: a switch, a host, or an
// approximated cluster fabric.
type Device interface {
	// NodeID returns the device's unique topology-wide identifier.
	NodeID() packet.NodeID
	// Receive delivers a packet that finished propagating over the link
	// attached to the device's port inPort.
	Receive(pkt *packet.Packet, inPort int)
}

// LinkConfig describes one direction of a link and the output queue that
// feeds it.
type LinkConfig struct {
	// BandwidthBps is the line rate in bits per second.
	BandwidthBps int64
	// PropDelay is the one-way propagation delay.
	PropDelay des.Time
	// QueueBytes caps the output queue occupancy (excluding the packet in
	// transmission). Zero means a 1-packet (unbuffered) output.
	QueueBytes int64
	// ECNThresholdBytes marks ECN-capable packets with CE when the queue
	// occupancy at enqueue is at or above this many bytes. Zero disables
	// marking.
	ECNThresholdBytes int64
	// ArrivalBand, when nonzero, schedules this link's arrival events in the
	// given kernel ordering band, keyed by the transmitting device — so two
	// same-timestamp arrivals at a device commit in transmitter order rather
	// than schedule order. The PDES network builder sets band 1 on every link
	// that can cross an LP boundary under ANY partitioning: cross-LP arrivals are
	// re-scheduled on the receiving kernel with the same (band, key), making
	// the committed event order identical whether a given link happens to be
	// local or cut.
	ArrivalBand uint8
}

// SerializationDelay returns the time to clock size bytes onto the wire.
//
// The naive int64 expression size*8*1e9/bw overflows for large frames at low
// bandwidths (size*8e9 exceeds 2^63 once size passes ~1.15 GB), silently
// going negative and corrupting every downstream timestamp. Compute the
// 128-bit product bits*1e9 explicitly and divide, saturating at MaxTime when
// even the quotient cannot be represented.
func (c LinkConfig) SerializationDelay(size int32) des.Time {
	if size <= 0 {
		return 0
	}
	b := uint64(size) * 8
	hi, lo := bits.Mul64(b, uint64(des.Second))
	bw := uint64(c.BandwidthBps)
	if hi >= bw {
		// Quotient >= 2^64: beyond any representable virtual time.
		return des.MaxTime
	}
	q, _ := bits.Div64(hi, lo, bw)
	if q > uint64(des.MaxTime) {
		return des.MaxTime
	}
	return des.Time(q)
}

// PortStats counts per-port activity. The live copy inside a Port is updated
// with single-writer atomics so mid-run metrics snapshots are torn-free; the
// value returned by Port.Stats (and checkpointed by SaveState) is a plain
// struct.
type PortStats struct {
	TxPackets  uint64 // packets fully serialized onto the link
	TxBytes    uint64
	Drops      uint64 // packets dropped at enqueue (queue full)
	ECNMarks   uint64 // packets CE-marked at enqueue
	FaultDrops uint64 // packets dropped because the link was down (fault injection)
	MaxQueue   int64  // high-water mark of queued bytes
}

// Port is one direction of a link: an output queue plus a transmitter.
// A duplex link between devices A and B is a pair of ports, one owned by
// each side, cross-connected with Connect.
type Port struct {
	kernel *des.Kernel
	owner  Device
	index  int // the port's index at its owner
	cfg    LinkConfig

	peer     Device
	peerPort int

	// queue[qhead:] is the FIFO. Dequeuing advances qhead instead of
	// reslicing, so the backing array is kept and reused: a port in steady
	// state enqueues without allocating (see pushQueue).
	queue       []*packet.Packet
	qhead       int
	queuedBytes int64
	busy        bool

	// txSize is the size of the packet currently serializing. The completion
	// event reads it instead of capturing the packet, which lets every
	// transmission share the single txDone closure below; txSize is
	// checkpointed with the port state, since a rollback can land between
	// transmit start and completion. The arrival at the peer likewise shares
	// one handler, arrive, which receives its packet as the event context.
	// Both are bound once in NewPort and the event objects come from the
	// kernel pool, so forwarding a packet allocates nothing.
	txSize int64
	txDone func()
	arrive func(any)

	stats PortStats

	// trace, when non-nil, receives per-packet lifecycle events ("queued"
	// and "tx" spans, "drop"/"ecn_mark" instants) on thread track tid.
	trace *obs.Buf
	tid   int32

	// OnDrop, if non-nil, observes each packet dropped at this port.
	OnDrop func(*packet.Packet)

	// Down, if non-nil, reports whether the attached link is physically dead
	// at a virtual time. The fault-injection builders install a closure over
	// the (immutable) fault schedule, so the answer is a pure function of
	// time — evaluated identically under every sync algorithm and across
	// optimistic re-execution, with nothing to checkpoint. Packets clocked
	// onto a dead link are dropped and counted in FaultDrops.
	Down func(des.Time) bool
}

// NewPort creates an unconnected output port owned by owner at index.
func NewPort(k *des.Kernel, owner Device, index int, cfg LinkConfig) *Port {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: port bandwidth must be positive")
	}
	p := &Port{kernel: k, owner: owner, index: index, cfg: cfg}
	p.txDone = p.onTxDone
	p.arrive = p.onArrive
	return p
}

// ArrivalKey is the kernel ordering key of an arrival transmitted by the
// device with the given NodeID (see LinkConfig.ArrivalBand). The PDES engine
// uses the same function when re-scheduling a proxied arrival on the
// receiving LP's kernel, so a link contributes identical (band, key) ordering
// whether it is simulated locally or across an LP boundary. Offset by one so
// the key is never the 0 that unkeyed events carry.
func ArrivalKey(src packet.NodeID) uint64 { return uint64(uint32(src)) + 1 }

// Connect cross-wires two ports into a duplex link. Packets sent on a reach
// b's owner (arriving on b's index) and vice versa.
func Connect(a, b *Port) {
	a.peer, a.peerPort = b.owner, b.index
	b.peer, b.peerPort = a.owner, a.index
}

// Config returns the port's link configuration.
func (p *Port) Config() LinkConfig { return p.cfg }

// Index returns the port's index at its owning device (the inPort value the
// owner sees for arrivals on this port).
func (p *Port) Index() int { return p.index }

// SetTrace routes the port's packet-lifecycle events to b under thread track
// tid (conventionally the owning device's NodeID). A nil b disables tracing.
func (p *Port) SetTrace(b *obs.Buf, tid int32) { p.trace, p.tid = b, tid }

// Stats returns a torn-free snapshot of the port counters. Safe to call from
// any goroutine.
func (p *Port) Stats() PortStats {
	return PortStats{
		TxPackets:  atomic.LoadUint64(&p.stats.TxPackets),
		TxBytes:    atomic.LoadUint64(&p.stats.TxBytes),
		Drops:      atomic.LoadUint64(&p.stats.Drops),
		ECNMarks:   atomic.LoadUint64(&p.stats.ECNMarks),
		FaultDrops: atomic.LoadUint64(&p.stats.FaultDrops),
		MaxQueue:   atomic.LoadInt64(&p.stats.MaxQueue),
	}
}

// QueuedBytes returns the current output-queue occupancy in bytes. Safe to
// call from any goroutine.
func (p *Port) QueuedBytes() int64 { return atomic.LoadInt64(&p.queuedBytes) }

// Peer returns the device and port index on the far side of the link.
func (p *Port) Peer() (Device, int) { return p.peer, p.peerPort }

// Send enqueues a packet for transmission, dropping it if the queue is full
// (drop-tail). It applies ECN marking at enqueue when configured.
func (p *Port) Send(pkt *packet.Packet) {
	if p.peer == nil {
		panic(fmt.Sprintf("netsim: send on unconnected port %d of node %d",
			p.index, p.owner.NodeID()))
	}
	if !p.busy {
		p.transmit(pkt)
		return
	}
	size := int64(pkt.Size())
	if p.queuedBytes+size > p.cfg.QueueBytes {
		atomic.AddUint64(&p.stats.Drops, 1)
		if p.trace != nil {
			p.trace.Emit(obs.Event{TS: p.kernel.Now(), Ph: obs.PhInstant,
				Name: "drop", Cat: "netsim", Tid: p.tid,
				K1: "bytes", V1: size, K2: "flow", V2: int64(pkt.FlowID)})
		}
		if p.OnDrop != nil {
			p.OnDrop(pkt)
		}
		return
	}
	if p.cfg.ECNThresholdBytes > 0 && pkt.ECNCapable &&
		p.queuedBytes >= p.cfg.ECNThresholdBytes {
		pkt.ECNMarked = true
		atomic.AddUint64(&p.stats.ECNMarks, 1)
		if p.trace != nil {
			p.trace.Emit(obs.Event{TS: p.kernel.Now(), Ph: obs.PhInstant,
				Name: "ecn_mark", Cat: "netsim", Tid: p.tid,
				K1: "queued_bytes", V1: p.queuedBytes, K2: "flow", V2: int64(pkt.FlowID)})
		}
	}
	pkt.EnqueueTime = p.kernel.Now()
	p.pushQueue(pkt)
	atomic.AddInt64(&p.queuedBytes, size)
	if p.queuedBytes > p.stats.MaxQueue {
		atomic.StoreInt64(&p.stats.MaxQueue, p.queuedBytes)
	}
}

// dropFault discards a packet that hit a dead link, charging FaultDrops.
func (p *Port) dropFault(pkt *packet.Packet) {
	atomic.AddUint64(&p.stats.FaultDrops, 1)
	if p.trace != nil {
		p.trace.Emit(obs.Event{TS: p.kernel.Now(), Ph: obs.PhInstant,
			Name: "fault_drop", Cat: "netsim", Tid: p.tid,
			K1: "bytes", V1: int64(pkt.Size()), K2: "flow", V2: int64(pkt.FlowID)})
	}
	if p.OnDrop != nil {
		p.OnDrop(pkt)
	}
}

// pushQueue appends pkt to the FIFO. When the backing array is full and at
// least half of it is already-dequeued prefix, the live packets slide to the
// front instead of the array growing, so a queue that never quite drains
// reuses one array of at most twice its peak depth.
func (p *Port) pushQueue(pkt *packet.Packet) {
	if n := len(p.queue); n == cap(p.queue) && p.qhead > 0 && 2*p.qhead >= n {
		live := copy(p.queue, p.queue[p.qhead:])
		clear(p.queue[live:])
		p.queue, p.qhead = p.queue[:live], 0
	}
	p.queue = append(p.queue, pkt)
}

// popQueue dequeues the head-of-line packet, nil when the queue is empty. A
// drained queue rewinds to the start of its backing array and keeps it: the
// next burst reuses the high-water allocation instead of regrowing it.
func (p *Port) popQueue() *packet.Packet {
	if p.qhead == len(p.queue) {
		return nil
	}
	next := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
	atomic.AddInt64(&p.queuedBytes, -int64(next.Size()))
	return next
}

// transmit clocks pkt onto the wire. The transmitter stays busy for the
// serialization delay; arrival at the peer happens one propagation delay
// after serialization completes.
//
// When the link is down (fault injection) the packet — and any queued
// successors, since the down state cannot change before the kernel advances —
// is dropped here, at the physical failure point. Packets whose arrival was
// already scheduled when the link died still arrive: the failure severs the
// link from the instant of the fault onward, not retroactively.
func (p *Port) transmit(pkt *packet.Packet) {
	if p.Down != nil && p.Down(p.kernel.Now()) {
		for pkt != nil {
			p.dropFault(pkt)
			pkt = p.popQueue()
		}
		p.busy = false
		return
	}
	p.busy = true
	p.txSize = int64(pkt.Size())
	ser := p.cfg.SerializationDelay(pkt.Size())
	arrival := ser + p.cfg.PropDelay
	if p.trace != nil {
		p.trace.Emit(obs.Event{TS: p.kernel.Now(), Dur: ser, Ph: obs.PhSpan,
			Name: "tx", Cat: "netsim", Tid: p.tid,
			K1: "bytes", V1: int64(pkt.Size()), K2: "flow", V2: int64(pkt.FlowID)})
	}
	// The packet rides as the event context: it is what the shared arrive
	// handler delivers, and it lets kernel snapshots (optimistic PDES
	// rollback) checkpoint the contents of packets in flight on the wire —
	// switches mutate TTL/hops/ECN in place on delivery.
	var key uint64
	if p.cfg.ArrivalBand != 0 {
		key = ArrivalKey(p.owner.NodeID())
	}
	p.kernel.AtCtxFn(p.kernel.Now()+arrival, p.cfg.ArrivalBand, key, pkt, p.arrive)
	p.kernel.Schedule(ser, p.txDone)
}

// onArrive is the arrival handler shared by every transmission on this port
// (see arrive): the packet has finished propagating and reaches the peer.
func (p *Port) onArrive(ctx any) { p.peer.Receive(ctx.(*packet.Packet), p.peerPort) }

// onTxDone is the serialization-complete handler, shared by every
// transmission on this port (see txDone): it charges the stats for the packet
// that just left the wire and starts the next queued one.
func (p *Port) onTxDone() {
	atomic.AddUint64(&p.stats.TxPackets, 1)
	atomic.AddUint64(&p.stats.TxBytes, uint64(p.txSize))
	next := p.popQueue()
	if next == nil {
		p.busy = false
		return
	}
	if p.trace != nil {
		if wait := p.kernel.Now() - next.EnqueueTime; wait > 0 && next.EnqueueTime > 0 {
			p.trace.Emit(obs.Event{TS: next.EnqueueTime, Dur: wait, Ph: obs.PhSpan,
				Name: "queued", Cat: "netsim", Tid: p.tid,
				K1: "bytes", V1: int64(next.Size()), K2: "flow", V2: int64(next.FlowID)})
		}
	}
	p.transmit(next)
}

// CollectMetrics implements metrics.Collector. Registering every port of a
// simulation under one group yields network-wide totals (counters sum) and
// the worst queue across all ports (gauges keep the max).
func (p *Port) CollectMetrics(e *metrics.Emitter) {
	st := p.Stats()
	e.Counter("tx_packets", st.TxPackets)
	e.Counter("tx_bytes", st.TxBytes)
	e.Counter("drops", st.Drops)
	e.Counter("ecn_marks", st.ECNMarks)
	e.Counter("fault_drops", st.FaultDrops)
	e.Gauge("queue_high_water_bytes", st.MaxQueue)
	e.Gauge("queued_bytes", p.QueuedBytes())
}

// Router chooses the output port for a packet at a switch. Implementations
// live in the topology package (up/down Clos routing with ECMP).
type Router interface {
	// Route returns the output port index at switch sw for pkt.
	// ok is false when the destination is unreachable from sw.
	Route(sw packet.NodeID, pkt *packet.Packet) (port int, ok bool)
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(sw packet.NodeID, pkt *packet.Packet) (int, bool)

// Route implements Router.
func (f RouterFunc) Route(sw packet.NodeID, pkt *packet.Packet) (int, bool) {
	return f(sw, pkt)
}

// Switch is an output-queued store-and-forward switch.
type Switch struct {
	id     packet.NodeID
	kernel *des.Kernel
	ports  []*Port
	router Router

	// OnReceive, if non-nil, observes every packet as it arrives, before
	// forwarding. The trace package uses this to instrument cluster
	// boundaries.
	OnReceive func(pkt *packet.Packet, inPort int)

	// RouteDrops counts packets discarded for TTL expiry or no route.
	// Updated atomically; read it with atomic.LoadUint64 (or at quiescence).
	RouteDrops uint64

	// Down, if non-nil, reports whether the switch is physically dead at a
	// virtual time (see Port.Down for the pure-function contract). A dead
	// switch drops every arriving packet, counted in FaultDrops.
	Down func(des.Time) bool

	// FaultDrops counts packets that arrived while the switch was down.
	// Updated atomically; read it with atomic.LoadUint64 (or at quiescence).
	FaultDrops uint64

	trace *obs.Buf
}

// NewSwitch creates a switch with no ports; add them with AddPort.
func NewSwitch(k *des.Kernel, id packet.NodeID, router Router) *Switch {
	return &Switch{id: id, kernel: k, router: router}
}

// NodeID implements Device.
func (s *Switch) NodeID() packet.NodeID { return s.id }

// Kernel returns the event kernel the switch schedules on. PDES routers use
// it to evaluate fault state at the owning LP's local virtual time.
func (s *Switch) Kernel() *des.Kernel { return s.kernel }

// AddPort creates, attaches, and returns the switch's next output port.
func (s *Switch) AddPort(cfg LinkConfig) *Port {
	p := NewPort(s.kernel, s, len(s.ports), cfg)
	if s.trace != nil {
		p.SetTrace(s.trace, int32(s.id))
	}
	s.ports = append(s.ports, p)
	return p
}

// Port returns the i'th port.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns how many ports the switch has.
func (s *Switch) NumPorts() int { return len(s.ports) }

// SetTrace routes the switch's (and all its current ports') lifecycle events
// to b, with the switch's NodeID as the thread track.
func (s *Switch) SetTrace(b *obs.Buf) {
	s.trace = b
	for _, p := range s.ports {
		p.SetTrace(b, int32(s.id))
	}
}

// TraceBuf returns the trace buffer installed by SetTrace (nil when tracing
// is disabled).
func (s *Switch) TraceBuf() *obs.Buf { return s.trace }

// TotalFaultDrops sums the switch's receive-side fault drops with every
// port's dead-link drops. Safe to call from any goroutine.
func (s *Switch) TotalFaultDrops() uint64 {
	n := atomic.LoadUint64(&s.FaultDrops)
	for _, p := range s.ports {
		n += p.Stats().FaultDrops
	}
	return n
}

// CollectMetrics implements metrics.Collector: the switch's route drops plus
// every attached port's counters.
func (s *Switch) CollectMetrics(e *metrics.Emitter) {
	e.Counter("route_drops", atomic.LoadUint64(&s.RouteDrops))
	e.Counter("fault_drops", atomic.LoadUint64(&s.FaultDrops))
	for _, p := range s.ports {
		p.CollectMetrics(e)
	}
}

// Receive implements Device: route the packet and enqueue it on the chosen
// output port.
func (s *Switch) Receive(pkt *packet.Packet, inPort int) {
	if s.OnReceive != nil {
		s.OnReceive(pkt, inPort)
	}
	if s.Down != nil && s.Down(s.kernel.Now()) {
		atomic.AddUint64(&s.FaultDrops, 1)
		if s.trace != nil {
			s.trace.Emit(obs.Event{TS: s.kernel.Now(), Ph: obs.PhInstant,
				Name: "fault_drop", Cat: "netsim", Tid: int32(s.id),
				K1: "bytes", V1: int64(pkt.Size()), K2: "flow", V2: int64(pkt.FlowID)})
		}
		return
	}
	pkt.Hops++
	pkt.TTL--
	if pkt.TTL <= 0 {
		atomic.AddUint64(&s.RouteDrops, 1)
		s.emitRouteDrop(pkt)
		return
	}
	out, ok := s.router.Route(s.id, pkt)
	if !ok {
		atomic.AddUint64(&s.RouteDrops, 1)
		s.emitRouteDrop(pkt)
		return
	}
	if out < 0 || out >= len(s.ports) {
		panic(fmt.Sprintf("netsim: switch %d routed to invalid port %d", s.id, out))
	}
	s.ports[out].Send(pkt)
}

func (s *Switch) emitRouteDrop(pkt *packet.Packet) {
	if s.trace == nil {
		return
	}
	s.trace.Emit(obs.Event{TS: s.kernel.Now(), Ph: obs.PhInstant,
		Name: "route_drop", Cat: "netsim", Tid: int32(s.id),
		K1: "ttl", V1: int64(pkt.TTL), K2: "flow", V2: int64(pkt.FlowID)})
}

// Host is an end host: a single NIC plus a transport demultiplexer.
type Host struct {
	id     packet.HostID
	nodeID packet.NodeID
	kernel *des.Kernel
	nic    *Port

	// Handler receives every packet delivered to the host. The TCP stack
	// installs its demux here.
	Handler func(pkt *packet.Packet)

	// OnReceive, if non-nil, observes arrivals before Handler runs.
	OnReceive func(pkt *packet.Packet)

	// RxPackets counts delivered packets. Updated atomically; read it with
	// atomic.LoadUint64 (or at quiescence).
	RxPackets uint64

	trace *obs.Buf
}

// NewHost creates a host. The NIC is created by AttachNIC.
func NewHost(k *des.Kernel, id packet.HostID, nodeID packet.NodeID) *Host {
	return &Host{id: id, nodeID: nodeID, kernel: k}
}

// ID returns the host identifier used in packet addressing.
func (h *Host) ID() packet.HostID { return h.id }

// NodeID implements Device.
func (h *Host) NodeID() packet.NodeID { return h.nodeID }

// AttachNIC creates the host's single network interface.
func (h *Host) AttachNIC(cfg LinkConfig) *Port {
	if h.nic != nil {
		panic("netsim: host already has a NIC")
	}
	h.nic = NewPort(h.kernel, h, 0, cfg)
	if h.trace != nil {
		h.nic.SetTrace(h.trace, int32(h.nodeID))
	}
	return h.nic
}

// NIC returns the host's interface port.
func (h *Host) NIC() *Port { return h.nic }

// Kernel returns the event kernel the host schedules on.
func (h *Host) Kernel() *des.Kernel { return h.kernel }

// Send stamps and transmits a packet from the host's NIC.
func (h *Host) Send(pkt *packet.Packet) {
	if pkt.SendTime == 0 {
		pkt.SendTime = h.kernel.Now()
	}
	if pkt.TTL == 0 {
		pkt.TTL = 64
	}
	h.nic.Send(pkt)
}

// SetTrace routes the host's (and its NIC's) lifecycle events to b, with the
// host's NodeID as the thread track.
func (h *Host) SetTrace(b *obs.Buf) {
	h.trace = b
	if h.nic != nil {
		h.nic.SetTrace(b, int32(h.nodeID))
	}
}

// CollectMetrics implements metrics.Collector: delivered packets plus the
// NIC's port counters.
func (h *Host) CollectMetrics(e *metrics.Emitter) {
	e.Counter("rx_packets", atomic.LoadUint64(&h.RxPackets))
	if h.nic != nil {
		h.nic.CollectMetrics(e)
	}
}

// Receive implements Device: deliver the packet to the transport handler.
func (h *Host) Receive(pkt *packet.Packet, _ int) {
	atomic.AddUint64(&h.RxPackets, 1)
	if h.trace != nil {
		h.trace.Emit(obs.Event{TS: h.kernel.Now(), Ph: obs.PhInstant,
			Name: "deliver", Cat: "netsim", Tid: int32(h.nodeID),
			K1: "bytes", V1: int64(pkt.Size()), K2: "flow", V2: int64(pkt.FlowID)})
	}
	if h.OnReceive != nil {
		h.OnReceive(pkt)
	}
	if h.Handler != nil {
		h.Handler(pkt)
	}
}
