package tcp

import (
	"approxsim/internal/des"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
)

type role int8

const (
	roleSender role = iota
	roleReceiver
)

// conn is one side of a TCP connection. Sequence numbers count payload bytes
// from zero; SYN and FIN are control-only and do not consume sequence space,
// which keeps the congestion-control arithmetic byte-exact without obscuring
// any behavior the paper's evaluation depends on.
type conn struct {
	stack *Stack
	role  role
	peer  packet.HostID
	flow  uint64

	// --- Sender state ---
	size     int64 // total payload bytes to deliver
	sndUna   int64 // lowest unacknowledged byte
	sndNxt   int64 // next byte to transmit
	cwnd     float64
	ssthresh float64
	peerWnd  int64 // peer's advertised window

	dupAcks    int
	inRecovery bool
	recover    int64 // New Reno: sndNxt when loss was detected

	established bool
	finSent     bool
	finAcked    bool
	done        bool

	est *rttEstimator
	// rtoTimer follows the kernel's pooled-event ownership rules (DESIGN.md
	// "Event ownership under pooling"): the handle is only dereferenced while
	// the event is pending, and is dead once the timer fires or is canceled.
	// onRTO nils it as its first action — the kernel recycles the object
	// before running the handler — and every Cancel is followed by
	// reassigning or nilling it, so only a live, un-fired timer is canceled.
	// rtoFn is onRTO bound once per sender, so re-arming allocates nothing.
	rtoTimer *des.Event
	rtoFn    func()

	// ECN response state: one window reduction per RTT.
	ecnReactUntil int64
	// DCTCP estimator (used when cfg.DCTCP).
	dctcp dctcpState

	start    des.Time
	end      des.Time
	retrans  uint64
	timeouts uint64
	onDone   func(FlowResult)

	// --- Receiver state ---
	rcvNxt int64
	ooo    []interval // out-of-order payload, sorted, non-overlapping
	gotFIN bool
}

// interval is a half-open received byte range [lo, hi).
type interval struct{ lo, hi int64 }

func newSenderConn(s *Stack, dst packet.HostID, size int64, flow uint64, onDone func(FlowResult)) *conn {
	cfg := s.cfg
	c := &conn{
		stack:    s,
		role:     roleSender,
		peer:     dst,
		flow:     flow,
		size:     size,
		cwnd:     float64(cfg.InitCwnd),
		ssthresh: float64(cfg.RcvWnd), // effectively unbounded until first loss
		peerWnd:  cfg.RcvWnd,
		est:      newRTTEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO),
		start:    s.kernel.Now(),
		onDone:   onDone,
	}
	c.rtoFn = c.onRTO
	return c
}

func newReceiverConn(s *Stack, src packet.HostID, flow uint64) *conn {
	return &conn{stack: s, role: roleReceiver, peer: src, flow: flow}
}

func (c *conn) result() FlowResult {
	return FlowResult{
		FlowID: c.flow, Src: c.stack.host.ID(), Dst: c.peer,
		Size: c.size, Start: c.start, End: c.end,
		Completed: c.done, Retrans: c.retrans, Timeouts: c.timeouts,
	}
}

// --- Packet construction ---

func (c *conn) newPacket(flags packet.Flags) *packet.Packet {
	return &packet.Packet{
		Src:        c.stack.host.ID(),
		Dst:        c.peer,
		FlowID:     c.flow,
		Flags:      flags,
		ECNCapable: c.stack.cfg.ECN || c.stack.cfg.DCTCP,
		EchoTime:   c.stack.kernel.Now(),
	}
}

func (c *conn) sendSYN() {
	c.stack.host.Send(c.newPacket(packet.FlagSYN))
	c.armRTO()
}

func (c *conn) sendSegment(seq int64, length int32) {
	p := c.newPacket(0)
	p.Seq = uint32(seq)
	p.PayloadLen = length
	c.stack.host.Send(p)
}

// sendAck emits a pure ACK for the receiver's current cumulative state,
// echoing the timestamp (and, under ECN, the congestion mark) of the data
// packet that triggered it.
func (c *conn) sendAck(trigger *packet.Packet, extra packet.Flags) {
	p := c.newPacket(packet.FlagACK | extra)
	p.Ack = uint32(c.rcvNxt)
	p.Window = uint32(c.stack.cfg.RcvWnd)
	if trigger != nil {
		p.EchoTime = trigger.EchoTime
		if trigger.ECNMarked {
			p.ECNMarked = true // congestion echo
		}
	}
	c.stack.host.Send(p)
}

// --- Timers ---

func (c *conn) armRTO() {
	if c.rtoTimer != nil {
		c.stack.kernel.Cancel(c.rtoTimer)
	}
	c.rtoTimer = c.stack.kernel.Schedule(c.est.current(), c.rtoFn)
}

func (c *conn) cancelRTO() {
	if c.rtoTimer != nil {
		c.stack.kernel.Cancel(c.rtoTimer)
		c.rtoTimer = nil
	}
}

func (c *conn) onRTO() {
	c.rtoTimer = nil // first: the object is already recycled (see field comment)
	if c.finAcked {
		return
	}
	c.timeouts++
	c.stack.timeoutTotal.Inc()
	if c.stack.trace != nil {
		c.stack.trace.Emit(obs.Event{TS: c.stack.kernel.Now(), Ph: obs.PhInstant,
			Name: "rto", Cat: "tcp", Tid: int32(c.stack.host.NodeID()),
			K1: "flow", V1: int64(c.flow), K2: "timeouts", V2: int64(c.timeouts)})
	}
	mss := float64(c.stack.cfg.MSS)
	if !c.established {
		// Lost SYN (or lost SYN|ACK): retransmit the SYN with backoff.
		c.est.backoff()
		c.sendSYN()
		return
	}
	if c.sndUna >= c.size {
		// Data fully acknowledged; only the FIN can be outstanding.
		c.est.backoff()
		c.sendFIN()
		return
	}
	// RFC 6298 §5.5–5.7: collapse to one segment (the minimum window), halve
	// ssthresh against the flight size, back the timer off, and go back to
	// the first unacknowledged byte.
	inflight := float64(c.sndNxt - c.sndUna)
	if half := inflight / 2; half > 2*mss {
		c.ssthresh = half
	} else {
		c.ssthresh = 2 * mss
	}
	c.cwnd = mss
	c.dupAcks = 0
	c.inRecovery = false
	c.sndNxt = c.sndUna
	c.est.backoff()
	c.countRetrans()
	c.transmitWindow()
	c.armRTO()
}

// --- Sender datapath ---

// segmentAt returns the length of the segment beginning at seq.
func (c *conn) segmentAt(seq int64) int32 {
	remaining := c.size - seq
	if remaining >= int64(c.stack.cfg.MSS) {
		return c.stack.cfg.MSS
	}
	return int32(remaining)
}

// transmitWindow sends new segments while the effective window allows.
func (c *conn) transmitWindow() {
	if !c.established {
		return
	}
	wnd := int64(c.cwnd)
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	// Always allow at least one segment of headroom so a collapsed window
	// (cwnd = 1 MSS) can still clock packets out.
	if min := int64(c.stack.cfg.MSS); wnd < min {
		wnd = min
	}
	for c.sndNxt < c.size {
		seg := c.segmentAt(c.sndNxt)
		if c.sndNxt-c.sndUna+int64(seg) > wnd {
			break
		}
		c.sendSegment(c.sndNxt, seg)
		c.sndNxt += int64(seg)
	}
	if c.sndNxt >= c.size && c.sndUna >= c.size && !c.finSent {
		c.sendFIN()
	}
}

func (c *conn) sendFIN() {
	c.finSent = true
	p := c.newPacket(packet.FlagFIN | packet.FlagACK)
	p.Seq = uint32(c.size)
	c.stack.host.Send(p)
	c.armRTO()
}

// receive dispatches an arriving segment by role and type.
func (c *conn) receive(p *packet.Packet) {
	if c.role == roleReceiver {
		c.receiverHandle(p)
		return
	}
	c.senderHandle(p)
}

func (c *conn) senderHandle(p *packet.Packet) {
	switch {
	case p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK != 0:
		if c.established {
			return // duplicate SYN|ACK
		}
		c.established = true
		c.est.sample(c.stack.kernel.Now() - p.EchoTime)
		c.sampleHook(c.stack.kernel.Now() - p.EchoTime)
		c.transmitWindow()
		c.armRTO()
	case p.Flags&packet.FlagFIN != 0:
		// FIN|ACK from the receiver: teardown complete.
		c.finAcked = true
		c.cancelRTO()
	case p.Flags&packet.FlagACK != 0:
		c.processAck(p)
	}
}

// processAck implements New Reno congestion control (RFC 5681 + RFC 6582).
func (c *conn) processAck(p *packet.Packet) {
	ack := int64(p.Ack)
	if w := int64(p.Window); w > 0 {
		c.peerWnd = w
	}
	mss := float64(c.stack.cfg.MSS)

	if ack > c.sndUna {
		newly := ack - c.sndUna
		c.sndUna = ack
		rtt := c.stack.kernel.Now() - p.EchoTime
		c.est.sample(rtt)
		c.sampleHook(rtt)

		if c.inRecovery {
			if ack >= c.recover {
				// Full acknowledgment: leave fast recovery, deflate.
				c.inRecovery = false
				c.dupAcks = 0
				c.cwnd = c.ssthresh
			} else {
				// Partial acknowledgment: the next segment after ack was
				// also lost. Retransmit it, deflate by the amount acked,
				// and stay in recovery (RFC 6582 §3.2 step 5).
				c.countRetrans()
				c.sendSegment(c.sndUna, c.segmentAt(c.sndUna))
				c.cwnd -= float64(newly)
				if float64(newly) >= mss {
					c.cwnd += mss
				}
				if c.cwnd < mss {
					c.cwnd = mss
				}
			}
		} else {
			c.dupAcks = 0
			if c.stack.cfg.DCTCP {
				c.dctcpOnAck(newly, p.ECNMarked)
			}
			if c.ecnEcho(p) {
				// Classic ECN: treat the echo like a loss signal, at most
				// once per window of data.
				c.halveForECN()
			} else if c.cwnd < c.ssthresh {
				// Slow start with appropriate byte counting (L=1).
				inc := float64(newly)
				if inc > mss {
					inc = mss
				}
				c.cwnd += inc
			} else {
				// Congestion avoidance: ~one MSS per RTT.
				c.cwnd += mss * mss / c.cwnd
			}
		}

		if c.sndUna >= c.size && !c.done {
			c.complete()
		}
		if c.sndUna < c.size || !c.finSent {
			c.armRTO()
			c.transmitWindow()
		} else {
			c.armRTO() // awaiting FIN|ACK
		}
		return
	}

	if ack == c.sndUna && c.sndNxt > c.sndUna {
		// Duplicate ACK.
		c.dupAcks++
		switch {
		case c.inRecovery:
			// Inflate and try to send new data (RFC 6582 §3.2 step 3).
			c.cwnd += mss
			c.transmitWindow()
		case c.dupAcks == 3:
			c.enterFastRecovery()
		}
	}
}

func (c *conn) enterFastRecovery() {
	mss := float64(c.stack.cfg.MSS)
	inflight := float64(c.sndNxt - c.sndUna)
	if half := inflight / 2; half > 2*mss {
		c.ssthresh = half
	} else {
		c.ssthresh = 2 * mss
	}
	c.recover = c.sndNxt
	c.inRecovery = true
	c.cwnd = c.ssthresh + 3*mss
	c.countRetrans()
	c.sendSegment(c.sndUna, c.segmentAt(c.sndUna))
	c.armRTO()
}

// ecnEcho reports whether p carries a congestion echo the classic response
// should react to (DCTCP has its own proportional reaction).
func (c *conn) ecnEcho(p *packet.Packet) bool {
	return c.stack.cfg.ECN && !c.stack.cfg.DCTCP && p.ECNMarked
}

func (c *conn) halveForECN() {
	if c.sndUna < c.ecnReactUntil {
		return // already reduced within this window of data
	}
	mss := float64(c.stack.cfg.MSS)
	c.cwnd /= 2
	if c.cwnd < mss {
		c.cwnd = mss
	}
	c.ssthresh = c.cwnd
	c.ecnReactUntil = c.sndNxt
}

func (c *conn) sampleHook(rtt des.Time) {
	if rtt >= 0 {
		c.stack.rttNanos.Observe(uint64(rtt))
		c.stack.cwndBytes.Observe(uint64(c.cwnd))
	}
	if c.stack.OnRTTSample != nil && rtt >= 0 {
		c.stack.OnRTTSample(c.flow, rtt)
	}
}

// countRetrans bumps both the per-flow and the stack-wide retransmission
// counters; every retransmission site must go through it so the metrics
// registry sees live totals.
func (c *conn) countRetrans() {
	c.retrans++
	c.stack.retransTotal.Inc()
	if c.stack.trace != nil {
		c.stack.trace.Emit(obs.Event{TS: c.stack.kernel.Now(), Ph: obs.PhInstant,
			Name: "retransmit", Cat: "tcp", Tid: int32(c.stack.host.NodeID()),
			K1: "flow", V1: int64(c.flow), K2: "retrans", V2: int64(c.retrans)})
	}
}

func (c *conn) complete() {
	c.done = true
	c.stack.flowsCompleted.Inc()
	c.end = c.stack.kernel.Now()
	c.stack.fctNanos.Observe(uint64(c.end - c.start))
	if c.stack.trace != nil {
		// The whole flow as one span: start-to-last-ACK, on the sender's track.
		c.stack.trace.Emit(obs.Event{TS: c.start, Dur: c.end - c.start, Ph: obs.PhSpan,
			Name: "flow", Cat: "tcp", Tid: int32(c.stack.host.NodeID()),
			K1: "bytes", V1: c.size, K2: "flow", V2: int64(c.flow)})
	}
	res := c.result()
	if c.onDone != nil {
		c.onDone(res)
	}
	if c.stack.OnFlowDone != nil {
		c.stack.OnFlowDone(res)
	}
}

// --- Receiver datapath ---

func (c *conn) receiverHandle(p *packet.Packet) {
	switch {
	case p.Flags&packet.FlagSYN != 0:
		// (Re)acknowledge connection setup; idempotent for duplicate SYNs.
		c.sendAck(p, packet.FlagSYN)
	case p.Flags&packet.FlagFIN != 0:
		first := !c.gotFIN
		c.gotFIN = true
		c.sendAck(p, packet.FlagFIN)
		if first && c.stack.OnFlowRecv != nil {
			// The sender FINs only after full cumulative acknowledgment, so
			// rcvNxt == the flow size here. gotFIN gates the hook to exactly
			// one firing per flow (and rides the conn checkpoint, so a
			// rolled-back firing replays identically).
			c.stack.OnFlowRecv(c.flow, c.peer, c.rcvNxt)
		}
	case p.PayloadLen > 0:
		c.ingest(int64(p.Seq), int64(p.PayloadLen))
		c.sendAck(p, 0)
	}
}

// ingest merges payload [seq, seq+n) into the receive state, advancing
// rcvNxt over any contiguous prefix (cumulative acknowledgment semantics).
func (c *conn) ingest(seq, n int64) {
	hi := seq + n
	if hi <= c.rcvNxt {
		return // wholly duplicate
	}
	if seq <= c.rcvNxt {
		c.rcvNxt = hi
		// Drain any now-contiguous buffered ranges.
		for len(c.ooo) > 0 && c.ooo[0].lo <= c.rcvNxt {
			if c.ooo[0].hi > c.rcvNxt {
				c.rcvNxt = c.ooo[0].hi
			}
			c.ooo = c.ooo[1:]
		}
		return
	}
	// Out of order: insert [seq, hi), keeping the list sorted and merged.
	pos := 0
	for pos < len(c.ooo) && c.ooo[pos].lo < seq {
		pos++
	}
	c.ooo = append(c.ooo, interval{})
	copy(c.ooo[pos+1:], c.ooo[pos:])
	c.ooo[pos] = interval{seq, hi}
	// Merge neighbors.
	merged := c.ooo[:1]
	for _, iv := range c.ooo[1:] {
		last := &merged[len(merged)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
		} else {
			merged = append(merged, iv)
		}
	}
	c.ooo = merged
}
