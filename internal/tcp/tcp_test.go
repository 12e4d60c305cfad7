package tcp

import (
	"testing"
	"testing/quick"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
)

const gbps = int64(1e9)

// wire is a Device spliced between two hosts that can selectively drop
// packets, for deterministic loss-injection tests.
type wire struct {
	k     *des.Kernel
	ports [2]*netsim.Port // port 0 toward host A, port 1 toward host B
	// drop decides per packet; nil means forward everything.
	drop  func(p *packet.Packet) bool
	drops int
}

func (w *wire) NodeID() packet.NodeID { return 999 }
func (w *wire) Receive(p *packet.Packet, inPort int) {
	if w.drop != nil && w.drop(p) {
		w.drops++
		return
	}
	w.ports[1-inPort].Send(p) // out the other side
}

// pair builds hostA <-> wire <-> hostB with the given link config and
// installs TCP stacks on both hosts.
func pair(cfg netsim.LinkConfig, tcpCfg Config) (*des.Kernel, *Stack, *Stack, *wire) {
	k := des.NewKernel()
	a := netsim.NewHost(k, 0, 0)
	b := netsim.NewHost(k, 1, 1)
	w := &wire{k: k}
	w.ports[0] = netsim.NewPort(k, w, 0, cfg)
	w.ports[1] = netsim.NewPort(k, w, 1, cfg)
	netsim.Connect(a.AttachNIC(cfg), w.ports[0])
	netsim.Connect(b.AttachNIC(cfg), w.ports[1])
	return k, NewStack(a, tcpCfg), NewStack(b, tcpCfg), w
}

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		BandwidthBps: gbps,
		PropDelay:    10 * des.Microsecond,
		// Host-egress semantics: a sender never drops its own packets in
		// its local queue (see the topology builder), so test links use a
		// deep queue; loss tests inject drops explicitly via the wire.
		QueueBytes: 1 << 26,
	}
}

func TestSmallFlowCompletes(t *testing.T) {
	k, sa, _, _ := pair(fastLink(), Config{})
	var got *FlowResult
	sa.StartFlow(1, 5000, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow did not complete")
	}
	if !got.Completed || got.Size != 5000 {
		t.Errorf("result = %+v", got)
	}
	if got.Retrans != 0 || got.Timeouts != 0 {
		t.Errorf("clean path had retrans=%d timeouts=%d", got.Retrans, got.Timeouts)
	}
	// Sanity on FCT: at least 2 RTTs (handshake + data), well under 1ms.
	if fct := got.FCT(); fct < 40*des.Microsecond || fct > des.Millisecond {
		t.Errorf("FCT = %v out of plausible range", fct)
	}
}

func TestSingleByteFlow(t *testing.T) {
	k, sa, _, _ := pair(fastLink(), Config{})
	done := false
	sa.StartFlow(1, 1, 2, func(FlowResult) { done = true })
	k.RunAll()
	if !done {
		t.Fatal("1-byte flow did not complete")
	}
}

func TestZeroSizeFlowPanics(t *testing.T) {
	_, sa, _, _ := pair(fastLink(), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size flow did not panic")
		}
	}()
	sa.StartFlow(1, 0, 3, nil)
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	_, sa, _, _ := pair(fastLink(), Config{})
	sa.StartFlow(1, 100, 7, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate flow id did not panic")
		}
	}()
	sa.StartFlow(1, 100, 7, nil)
}

func TestLargeFlowThroughput(t *testing.T) {
	// A 10 MB flow over 1 Gb/s should finish in ~85ms (80ms of payload
	// serialization plus slow-start ramp and header overhead).
	k, sa, _, _ := pair(fastLink(), Config{})
	var got *FlowResult
	const size = 10 << 20
	sa.StartFlow(1, size, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow did not complete")
	}
	fct := got.FCT().Seconds()
	ideal := float64(size) * 8 / float64(gbps)
	if fct < ideal {
		t.Errorf("FCT %.4fs beats line rate %.4fs: impossible", fct, ideal)
	}
	if fct > ideal*1.3 {
		t.Errorf("FCT %.4fs too far above ideal %.4fs for a clean link", fct, ideal)
	}
	if got.Retrans != 0 {
		t.Errorf("clean link saw %d retransmissions", got.Retrans)
	}
}

func TestFlowDeliversExactBytes(t *testing.T) {
	k, sa, sb, _ := pair(fastLink(), Config{})
	sa.StartFlow(1, 123457, 1, nil)
	k.RunAll()
	c := sb.conns[1]
	if c == nil {
		t.Fatal("receiver conn missing")
	}
	if c.rcvNxt != 123457 {
		t.Errorf("receiver got %d bytes, want 123457", c.rcvNxt)
	}
	if !c.gotFIN {
		t.Error("receiver never saw FIN")
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	k, sa, _, w := pair(fastLink(), Config{})
	// Drop exactly one data segment (the one starting at byte 14600).
	dropped := false
	w.drop = func(p *packet.Packet) bool {
		if !dropped && p.PayloadLen > 0 && p.Seq == 14600 {
			dropped = true
			return true
		}
		return false
	}
	var got *FlowResult
	sa.StartFlow(1, 200*packet.MSS, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow did not complete despite retransmission")
	}
	if !dropped {
		t.Fatal("loss injection never triggered")
	}
	if got.Retrans == 0 {
		t.Error("no retransmissions recorded after a drop")
	}
	if got.Timeouts != 0 {
		t.Errorf("single loss should be repaired by fast retransmit, saw %d timeouts", got.Timeouts)
	}
}

func TestNewRenoMultipleLossesInWindow(t *testing.T) {
	// Drop two segments from the same window: New Reno repairs the second
	// via a partial ACK without a timeout.
	k, sa, _, w := pair(fastLink(), Config{})
	toDrop := map[uint32]bool{14600: true, 29200: true}
	w.drop = func(p *packet.Packet) bool {
		if p.PayloadLen > 0 && toDrop[p.Seq] {
			delete(toDrop, p.Seq)
			return true
		}
		return false
	}
	var got *FlowResult
	sa.StartFlow(1, 300*packet.MSS, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow did not complete")
	}
	if got.Timeouts != 0 {
		t.Errorf("two in-window losses caused %d timeouts; New Reno partial ACKs should repair", got.Timeouts)
	}
	if got.Retrans < 2 {
		t.Errorf("expected >= 2 retransmissions, got %d", got.Retrans)
	}
}

func TestRTORecoversFromBurstLoss(t *testing.T) {
	// Drop everything (data and ACKs) in a time window: only the RTO can
	// recover.
	k, sa, _, w := pair(fastLink(), Config{MinRTO: des.Millisecond, InitialRTO: des.Millisecond})
	w.drop = func(p *packet.Packet) bool {
		now := w.k.Now()
		return now > 100*des.Microsecond && now < 2*des.Millisecond
	}
	var got *FlowResult
	sa.StartFlow(1, 100*packet.MSS, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow never completed after blackout")
	}
	if got.Timeouts == 0 {
		t.Error("blackout should force at least one RTO")
	}
}

func TestSYNLossRetransmitted(t *testing.T) {
	k, sa, _, w := pair(fastLink(), Config{InitialRTO: des.Millisecond, MinRTO: des.Millisecond})
	synDropped := 0
	w.drop = func(p *packet.Packet) bool {
		if p.Flags&packet.FlagSYN != 0 && p.Flags&packet.FlagACK == 0 && synDropped < 2 {
			synDropped++
			return true
		}
		return false
	}
	var got *FlowResult
	sa.StartFlow(1, 1000, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil {
		t.Fatal("flow did not survive SYN loss")
	}
	if synDropped != 2 {
		t.Errorf("dropped %d SYNs, want 2", synDropped)
	}
	// SYN retries happen at ~1ms and ~2ms (backoff); FCT must reflect that.
	if got.FCT() < 3*des.Millisecond {
		t.Errorf("FCT %v too small for two SYN timeouts with backoff", got.FCT())
	}
}

func TestFINLossRetransmitted(t *testing.T) {
	k, sa, sb, w := pair(fastLink(), Config{InitialRTO: des.Millisecond, MinRTO: des.Millisecond})
	finDropped := 0
	w.drop = func(p *packet.Packet) bool {
		// Drop the sender's first FIN only (receiver FIN|ACK also carries
		// FIN, so match on the data-sender's direction).
		if p.Flags&packet.FlagFIN != 0 && p.Src == 0 && finDropped == 0 {
			finDropped++
			return true
		}
		return false
	}
	sa.StartFlow(1, 1000, 1, nil)
	k.RunAll()
	if finDropped != 1 {
		t.Fatalf("FIN drop not triggered")
	}
	sc := sa.conns[1]
	if !sc.finAcked {
		t.Error("sender never completed teardown after FIN loss")
	}
	if !sb.conns[1].gotFIN {
		t.Error("receiver never saw a FIN")
	}
}

func TestCwndNeverBelowOneMSS(t *testing.T) {
	k, sa, _, w := pair(fastLink(), Config{MinRTO: des.Millisecond, InitialRTO: des.Millisecond})
	r := rng.New(5)
	w.drop = func(p *packet.Packet) bool {
		return p.PayloadLen > 0 && r.Float64() < 0.3
	}
	sa.StartFlow(1, 50*packet.MSS, 1, nil)
	minCwnd := 1e18
	for i := 0; i < 2_000_000 && k.Step(); i++ {
		if c := sa.conns[1]; c != nil && c.established {
			if c.cwnd < minCwnd {
				minCwnd = c.cwnd
			}
		}
	}
	if minCwnd < float64(packet.MSS) {
		t.Errorf("cwnd dropped to %v, below one MSS", minCwnd)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	// With no loss, cwnd should roughly double per RTT during slow start.
	// Two hops of 25us propagation each way -> RTT ~105us.
	k, sa, _, _ := pair(netsim.LinkConfig{
		BandwidthBps: 10 * gbps,
		PropDelay:    25 * des.Microsecond,
		QueueBytes:   1 << 26,
	}, Config{})
	sa.StartFlow(1, 4<<20, 1, nil)
	c := sa.conns[1]
	var cwndAt []float64
	// Sample cwnd every ~RTT of virtual time, starting after the first
	// window of ACKs has returned (handshake RTT + data RTT ~ 210us).
	var sample func()
	sample = func() {
		cwndAt = append(cwndAt, c.cwnd)
		if len(cwndAt) < 6 {
			k.Schedule(105*des.Microsecond, sample)
		}
	}
	k.Schedule(250*des.Microsecond, sample)
	k.RunAll()
	if len(cwndAt) < 4 {
		t.Fatalf("too few samples: %d", len(cwndAt))
	}
	grew := 0
	for i := 1; i < 4; i++ {
		if cwndAt[i] >= cwndAt[i-1]*1.5 {
			grew++
		}
	}
	if grew < 2 {
		t.Errorf("slow start not roughly doubling: cwnd samples %v", cwndAt)
	}
}

func TestRTTSampleHook(t *testing.T) {
	k, sa, _, _ := pair(fastLink(), Config{})
	var samples []des.Time
	sa.OnRTTSample = func(flow uint64, rtt des.Time) {
		samples = append(samples, rtt)
	}
	sa.StartFlow(1, 10*packet.MSS, 1, nil)
	k.RunAll()
	if len(samples) < 5 {
		t.Fatalf("got %d RTT samples, want several", len(samples))
	}
	for _, rtt := range samples {
		// Propagation alone is 20us round trip; anything under that or
		// over 10ms on an idle link is wrong.
		if rtt < 20*des.Microsecond || rtt > 10*des.Millisecond {
			t.Errorf("implausible RTT sample %v", rtt)
		}
	}
}

func TestECNReducesWindow(t *testing.T) {
	k, sa, _, w := pair(fastLink(), Config{ECN: true})
	// Mark (rather than drop) a stretch of data packets.
	w.drop = nil
	marked := 0
	origReceive := w.ports[0] // silence unused warnings; marking is below
	_ = origReceive
	wDropOld := w.drop
	_ = wDropOld
	w.drop = func(p *packet.Packet) bool {
		if p.PayloadLen > 0 && p.Seq > 50000 && p.Seq < 120000 && p.ECNCapable {
			p.ECNMarked = true
			marked++
		}
		return false
	}
	sa.StartFlow(1, 500*packet.MSS, 1, nil)
	c := sa.conns[1]
	maxBefore, minAfter := 0.0, 1e18
	for i := 0; i < 5_000_000 && k.Step(); i++ {
		if !c.established {
			continue
		}
		if marked == 0 {
			if c.cwnd > maxBefore {
				maxBefore = c.cwnd
			}
		} else if c.cwnd < minAfter {
			minAfter = c.cwnd
		}
	}
	if marked == 0 {
		t.Fatal("no packets were ECN-marked")
	}
	if minAfter >= maxBefore {
		t.Errorf("ECN echo did not reduce cwnd: before max %v, after min %v", maxBefore, minAfter)
	}
}

func TestReceiverReordering(t *testing.T) {
	// Deliver segments out of order by delaying one; cumulative ACKing
	// must still deliver the exact byte stream.
	k, sa, sb, w := pair(fastLink(), Config{})
	var held *packet.Packet
	w.drop = func(p *packet.Packet) bool {
		if held == nil && p.PayloadLen > 0 && p.Seq == 2920 {
			held = p.Clone()
			// Re-inject two segments later.
			w.k.Schedule(50*des.Microsecond, func() { w.ports[1].Send(held) })
			return true
		}
		return false
	}
	sa.StartFlow(1, 10*packet.MSS, 1, nil)
	k.RunAll()
	if got := sb.conns[1].rcvNxt; got != 10*packet.MSS {
		t.Errorf("receiver advanced to %d, want %d", got, 10*packet.MSS)
	}
}

func TestManyConcurrentFlowsOneLink(t *testing.T) {
	// Two hosts, 20 simultaneous flows: all must complete and roughly share
	// the bottleneck.
	k, sa, _, _ := pair(fastLink(), Config{})
	done := 0
	const n = 20
	for i := 0; i < n; i++ {
		sa.StartFlow(1, 200_000, uint64(i+1), func(FlowResult) { done++ })
	}
	k.RunAll()
	if done != n {
		t.Fatalf("%d of %d flows completed", done, n)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MSS != packet.MSS || cfg.InitCwnd != 10*packet.MSS {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	custom := Config{MSS: 500}.withDefaults()
	if custom.InitCwnd != 5000 {
		t.Errorf("InitCwnd should scale with custom MSS, got %d", custom.InitCwnd)
	}
}

func TestResultsIncludeIncompleteFlows(t *testing.T) {
	k, sa, _, w := pair(fastLink(), Config{})
	w.drop = func(p *packet.Packet) bool { return true } // black hole
	sa.StartFlow(1, 1000, 1, nil)
	k.Run(5 * des.Millisecond)
	rs := sa.Results()
	if len(rs) != 1 || rs[0].Completed {
		t.Errorf("Results = %+v, want one incomplete flow", rs)
	}
	_ = k
}

func TestStrayPacketIgnored(t *testing.T) {
	_, sa, _, _ := pair(fastLink(), Config{})
	// An ACK for an unknown flow must not crash or create state.
	sa.handle(&packet.Packet{FlowID: 42, Flags: packet.FlagACK})
	if sa.ConnCount() != 0 {
		t.Error("stray ACK created a connection")
	}
}

// Property: under any random loss pattern (below 40%), flows complete and
// the receiver sees exactly the flow's byte count.
func TestPropertyLossyDeliveryExact(t *testing.T) {
	f := func(seed uint64, sizeSel uint16, lossSel uint8) bool {
		size := int64(sizeSel)%50000 + 1
		loss := float64(lossSel%40) / 100
		cfg := Config{MinRTO: des.Millisecond, InitialRTO: des.Millisecond}
		k, sa, sb, w := pair(fastLink(), cfg)
		r := rng.New(seed)
		w.drop = func(p *packet.Packet) bool { return r.Float64() < loss }
		completed := false
		sa.StartFlow(1, size, 1, func(FlowResult) { completed = true })
		k.Run(30 * des.Second)
		if !completed {
			return false
		}
		return sb.conns[1].rcvNxt == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBulkTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k, sa, _, _ := pair(fastLink(), Config{})
		sa.StartFlow(1, 1<<20, 1, nil)
		k.RunAll()
	}
}

// TestPropertyInflightBoundedByRcvWnd: the sender never has more than
// max(advertised window, 1 MSS) bytes outstanding, under any loss pattern.
func TestPropertyInflightBoundedByRcvWnd(t *testing.T) {
	f := func(seed uint64, lossSel uint8) bool {
		loss := float64(lossSel%30) / 100
		cfg := Config{RcvWnd: 8 * packet.MSS, MinRTO: des.Millisecond, InitialRTO: des.Millisecond}
		k, sa, _, w := pair(fastLink(), cfg)
		r := rng.New(seed)
		w.drop = func(p *packet.Packet) bool { return r.Float64() < loss }
		sa.StartFlow(1, 60*packet.MSS, 1, nil)
		c := sa.conns[1]
		bound := int64(8 * packet.MSS)
		for i := 0; i < 3_000_000 && k.Step(); i++ {
			if infl := c.sndNxt - c.sndUna; infl > bound {
				t.Logf("inflight %d exceeds rcvwnd %d", infl, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTinyReceiveWindowStillCompletes(t *testing.T) {
	cfg := Config{RcvWnd: 2 * packet.MSS}
	k, sa, sb, _ := pair(fastLink(), cfg)
	var got *FlowResult
	sa.StartFlow(1, 40*packet.MSS, 1, func(r FlowResult) { got = &r })
	k.RunAll()
	if got == nil || !got.Completed {
		t.Fatal("flow did not complete under a tiny receive window")
	}
	if sb.conns[1].rcvNxt != 40*packet.MSS {
		t.Error("byte stream incomplete")
	}
	// Window-limited transfer: at most 2 MSS per RTT (~40us), so at least
	// 20 RTTs; FCT must reflect the throttling.
	if got.FCT() < 400*des.Microsecond {
		t.Errorf("FCT %v too fast for a 2-MSS window", got.FCT())
	}
}

// TestPropertyNoDataBeyondFlowSize: the sender never transmits payload
// bytes past the flow size, even while retransmitting.
func TestPropertyNoDataBeyondFlowSize(t *testing.T) {
	f := func(seed uint64, sizeSel uint16) bool {
		size := int64(sizeSel)%80_000 + 1
		k, sa, _, w := pair(fastLink(), Config{MinRTO: des.Millisecond, InitialRTO: des.Millisecond})
		r := rng.New(seed)
		ok := true
		w.drop = func(p *packet.Packet) bool {
			if p.PayloadLen > 0 && int64(p.Seq)+int64(p.PayloadLen) > size {
				ok = false
			}
			return r.Float64() < 0.15
		}
		sa.StartFlow(1, size, 1, nil)
		k.Run(10 * des.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Re-arming the retransmission timer — on every ACK, the hottest timer path —
// allocates nothing: the handler is bound once per connection and the
// canceled event object goes straight back to the kernel pool for the new one.
func TestRTORearmAllocatesNothing(t *testing.T) {
	k, sa, _, _ := pair(fastLink(), Config{})
	c := newSenderConn(sa, 1, 1<<20, 1, nil)
	c.armRTO() // warm the pool
	if allocs := testing.AllocsPerRun(1000, c.armRTO); allocs != 0 {
		t.Errorf("%.1f allocs per RTO re-arm, want 0", allocs)
	}
	if st := k.Stats(); k.Pending() != 1 || st.Canceled == 0 {
		t.Errorf("re-arming left %d pending events (%+v), want exactly the live timer", k.Pending(), st)
	}
	c.cancelRTO()
	if k.Pending() != 0 || c.rtoTimer != nil {
		t.Errorf("cancelRTO left %d pending events", k.Pending())
	}
}
