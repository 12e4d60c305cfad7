package netsim

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// sink is a Device that records deliveries with their times.
type sink struct {
	id       packet.NodeID
	k        *des.Kernel
	got      []*packet.Packet
	at       []des.Time
	inPorts  []int
	deliverF func(*packet.Packet)
}

func (s *sink) NodeID() packet.NodeID { return s.id }
func (s *sink) Receive(p *packet.Packet, inPort int) {
	s.got = append(s.got, p)
	s.at = append(s.at, s.k.Now())
	s.inPorts = append(s.inPorts, inPort)
	if s.deliverF != nil {
		s.deliverF(p)
	}
}

const gbps = int64(1e9)

func mkLink(t *testing.T, k *des.Kernel, cfg LinkConfig) (*Port, *sink) {
	t.Helper()
	src := &sink{id: 1, k: k}
	dst := &sink{id: 2, k: k}
	a := NewPort(k, src, 0, cfg)
	b := NewPort(k, dst, 0, cfg)
	Connect(a, b)
	return a, dst
}

func TestSerializationDelayExact(t *testing.T) {
	cfg := LinkConfig{BandwidthBps: 10 * gbps}
	// 1526 bytes at 10 Gb/s = 1526*8/10e9 s = 1220.8ns -> integer 1220ns.
	if d := cfg.SerializationDelay(packet.MaxFrameSize); d != 1220 {
		t.Errorf("serialization delay = %d, want 1220", d)
	}
	cfg2 := LinkConfig{BandwidthBps: 1 * gbps}
	if d := cfg2.SerializationDelay(1000); d != 8000 {
		t.Errorf("1000B at 1Gbps = %d ns, want 8000", d)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 1000, QueueBytes: 1 << 20}
	a, dst := mkLink(t, k, cfg)
	p := &packet.Packet{PayloadLen: 934} // 1000B total
	a.Send(p)
	k.RunAll()
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.got))
	}
	// ser(1000B @1Gbps)=8000ns + prop 1000ns = 9000ns.
	if dst.at[0] != 9000 {
		t.Errorf("arrival at %v, want 9000ns", dst.at[0])
	}
}

func TestBackToBackSerialization(t *testing.T) {
	// Two packets sent at t=0 must arrive one serialization apart.
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 500, QueueBytes: 1 << 20}
	a, dst := mkLink(t, k, cfg)
	a.Send(&packet.Packet{PayloadLen: 934})
	a.Send(&packet.Packet{PayloadLen: 934})
	k.RunAll()
	if len(dst.got) != 2 {
		t.Fatalf("delivered %d, want 2", len(dst.got))
	}
	if dst.at[0] != 8500 || dst.at[1] != 16500 {
		t.Errorf("arrivals %v, want [8500 16500]", dst.at)
	}
}

func TestDropTail(t *testing.T) {
	k := des.NewKernel()
	// Queue fits exactly one more 1000B packet beyond the one in service.
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 0, QueueBytes: 1000}
	a, dst := mkLink(t, k, cfg)
	var dropped []*packet.Packet
	a.OnDrop = func(p *packet.Packet) { dropped = append(dropped, p) }
	for i := 0; i < 3; i++ {
		a.Send(&packet.Packet{PayloadLen: 934, Seq: uint32(i)})
	}
	k.RunAll()
	if len(dst.got) != 2 {
		t.Fatalf("delivered %d, want 2 (1 transmitting + 1 queued)", len(dst.got))
	}
	if len(dropped) != 1 || dropped[0].Seq != 2 {
		t.Fatalf("dropped = %v, want the third packet", dropped)
	}
	if a.Stats().Drops != 1 {
		t.Errorf("Drops stat = %d, want 1", a.Stats().Drops)
	}
}

func TestFIFOOrder(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 100, QueueBytes: 1 << 20}
	a, dst := mkLink(t, k, cfg)
	for i := 0; i < 10; i++ {
		a.Send(&packet.Packet{PayloadLen: 100, Seq: uint32(i)})
	}
	k.RunAll()
	for i, p := range dst.got {
		if p.Seq != uint32(i) {
			t.Fatalf("packet %d has seq %d: queue is not FIFO", i, p.Seq)
		}
	}
}

func TestECNMarking(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{
		BandwidthBps: gbps, PropDelay: 0,
		QueueBytes: 1 << 20, ECNThresholdBytes: 2000,
	}
	a, dst := mkLink(t, k, cfg)
	// First packet transmits immediately (not queued, never marked); the
	// next several queue up. Marks apply once occupancy >= 2000B.
	for i := 0; i < 5; i++ {
		a.Send(&packet.Packet{PayloadLen: 934, ECNCapable: true})
	}
	k.RunAll()
	marked := 0
	for _, p := range dst.got {
		if p.ECNMarked {
			marked++
		}
	}
	// Queue occupancies at enqueue: 0 (transmitting), 0, 1000, 2000, 3000.
	if marked != 2 {
		t.Errorf("marked %d packets, want 2", marked)
	}
	if a.Stats().ECNMarks != 2 {
		t.Errorf("ECNMarks stat = %d, want 2", a.Stats().ECNMarks)
	}
}

func TestECNNotMarkedWhenIncapable(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{
		BandwidthBps: gbps, PropDelay: 0,
		QueueBytes: 1 << 20, ECNThresholdBytes: 1,
	}
	a, dst := mkLink(t, k, cfg)
	for i := 0; i < 4; i++ {
		a.Send(&packet.Packet{PayloadLen: 934})
	}
	k.RunAll()
	for _, p := range dst.got {
		if p.ECNMarked {
			t.Fatal("non-ECN-capable packet was marked")
		}
	}
}

func TestThroughputAtLineRate(t *testing.T) {
	// Saturate a 1 Gb/s link for 10ms; delivered bytes must match capacity.
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 1000, QueueBytes: 1 << 30}
	a, dst := mkLink(t, k, cfg)
	const n = 900
	for i := 0; i < n; i++ {
		a.Send(&packet.Packet{PayloadLen: packet.MSS})
	}
	k.RunAll()
	if len(dst.got) != n {
		t.Fatalf("delivered %d, want %d", len(dst.got), n)
	}
	last := dst.at[len(dst.at)-1]
	wantBits := int64(n) * int64(packet.MaxFrameSize) * 8
	gotSeconds := last.Seconds()
	wantSeconds := float64(wantBits)/float64(gbps) + 1000e-9
	if diff := gotSeconds - wantSeconds; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("drain time %v s, want %v s", gotSeconds, wantSeconds)
	}
}

// staticRouter routes every packet out a fixed port.
type staticRouter int

func (r staticRouter) Route(packet.NodeID, *packet.Packet) (int, bool) {
	return int(r), true
}

func TestSwitchForwards(t *testing.T) {
	k := des.NewKernel()
	sw := NewSwitch(k, 10, staticRouter(0))
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 100, QueueBytes: 1 << 20}
	out := sw.AddPort(cfg)
	dst := &sink{id: 2, k: k}
	dp := NewPort(k, dst, 0, cfg)
	Connect(out, dp)

	p := &packet.Packet{PayloadLen: 100, TTL: 8}
	sw.Receive(p, 0)
	k.RunAll()
	if len(dst.got) != 1 {
		t.Fatalf("switch did not forward")
	}
	if p.Hops != 1 {
		t.Errorf("Hops = %d, want 1", p.Hops)
	}
	if p.TTL != 7 {
		t.Errorf("TTL = %d, want 7", p.TTL)
	}
}

func TestSwitchTTLExpiry(t *testing.T) {
	k := des.NewKernel()
	sw := NewSwitch(k, 10, staticRouter(0))
	sw.AddPort(LinkConfig{BandwidthBps: gbps, QueueBytes: 1 << 20})
	p := &packet.Packet{PayloadLen: 100, TTL: 1}
	sw.Receive(p, 0)
	k.RunAll()
	if sw.RouteDrops != 1 {
		t.Errorf("RouteDrops = %d, want 1 (TTL expiry)", sw.RouteDrops)
	}
}

func TestSwitchNoRouteDrop(t *testing.T) {
	k := des.NewKernel()
	noRoute := RouterFunc(func(packet.NodeID, *packet.Packet) (int, bool) {
		return 0, false
	})
	sw := NewSwitch(k, 10, noRoute)
	sw.AddPort(LinkConfig{BandwidthBps: gbps, QueueBytes: 1 << 20})
	sw.Receive(&packet.Packet{TTL: 8}, 0)
	if sw.RouteDrops != 1 {
		t.Errorf("RouteDrops = %d, want 1 (no route)", sw.RouteDrops)
	}
}

func TestSwitchOnReceiveTap(t *testing.T) {
	k := des.NewKernel()
	sw := NewSwitch(k, 10, staticRouter(0))
	cfg := LinkConfig{BandwidthBps: gbps, QueueBytes: 1 << 20}
	out := sw.AddPort(cfg)
	dst := &sink{id: 2, k: k}
	Connect(out, NewPort(k, dst, 0, cfg))
	var tapped []int
	sw.OnReceive = func(_ *packet.Packet, inPort int) {
		tapped = append(tapped, inPort)
	}
	sw.Receive(&packet.Packet{TTL: 8}, 3)
	if len(tapped) != 1 || tapped[0] != 3 {
		t.Errorf("tap saw %v, want [3]", tapped)
	}
}

func TestHostDelivery(t *testing.T) {
	k := des.NewKernel()
	h := NewHost(k, 5, 105)
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 100, QueueBytes: 1 << 20}
	nic := h.AttachNIC(cfg)
	peer := &sink{id: 1, k: k}
	pp := NewPort(k, peer, 0, cfg)
	Connect(nic, pp)

	var handled []*packet.Packet
	h.Handler = func(p *packet.Packet) { handled = append(handled, p) }
	tapCount := 0
	h.OnReceive = func(*packet.Packet) { tapCount++ }

	pp.Send(&packet.Packet{PayloadLen: 10, Dst: 5})
	k.RunAll()
	if len(handled) != 1 || tapCount != 1 || h.RxPackets != 1 {
		t.Errorf("handled=%d tap=%d rx=%d, want 1 each",
			len(handled), tapCount, h.RxPackets)
	}
}

func TestHostSendStampsTTLAndTime(t *testing.T) {
	k := des.NewKernel()
	h := NewHost(k, 5, 105)
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 0, QueueBytes: 1 << 20}
	nic := h.AttachNIC(cfg)
	peer := &sink{id: 1, k: k}
	pp := NewPort(k, peer, 0, cfg)
	Connect(nic, pp)
	k.Schedule(777, func() {
		h.Send(&packet.Packet{PayloadLen: 10})
	})
	k.RunAll()
	if len(peer.got) != 1 {
		t.Fatal("not delivered")
	}
	if peer.got[0].SendTime != 777 {
		t.Errorf("SendTime = %v, want 777", peer.got[0].SendTime)
	}
	if peer.got[0].TTL != 64 {
		t.Errorf("TTL = %d, want default 64", peer.got[0].TTL)
	}
}

func TestDoubleNICPanics(t *testing.T) {
	k := des.NewKernel()
	h := NewHost(k, 1, 1)
	h.AttachNIC(LinkConfig{BandwidthBps: gbps})
	defer func() {
		if recover() == nil {
			t.Fatal("second AttachNIC did not panic")
		}
	}()
	h.AttachNIC(LinkConfig{BandwidthBps: gbps})
}

func TestSendOnUnconnectedPortPanics(t *testing.T) {
	k := des.NewKernel()
	h := NewHost(k, 1, 1)
	p := NewPort(k, h, 0, LinkConfig{BandwidthBps: gbps})
	defer func() {
		if recover() == nil {
			t.Fatal("send on unconnected port did not panic")
		}
	}()
	p.Send(&packet.Packet{})
}

func TestMaxQueueHighWater(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, QueueBytes: 1 << 20}
	a, _ := mkLink(t, k, cfg)
	for i := 0; i < 5; i++ {
		a.Send(&packet.Packet{PayloadLen: 934})
	}
	// 4 packets of 1000B queued behind the transmitting one.
	if a.Stats().MaxQueue != 4000 {
		t.Errorf("MaxQueue = %d, want 4000", a.Stats().MaxQueue)
	}
	k.RunAll()
}

func BenchmarkLinkForwarding(b *testing.B) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: 10 * gbps, PropDelay: 1000, QueueBytes: 1 << 20}
	src := &sink{id: 1, k: k}
	dst := &sink{id: 2, k: k}
	a := NewPort(k, src, 0, cfg)
	bb := NewPort(k, dst, 0, cfg)
	Connect(a, bb)
	b.ReportAllocs()
	p := &packet.Packet{PayloadLen: packet.MSS}
	for i := 0; i < b.N; i++ {
		a.Send(p)
		k.RunAll()
		dst.got = dst.got[:0]
		dst.at = dst.at[:0]
		dst.inPorts = dst.inPorts[:0]
	}
}

// A steady-state host–switch–host line forwards without allocating: every
// arrival shares its port's pre-bound handler, the FIFOs reuse their backing
// arrays, and the event objects come from the kernel pool. The switch egress
// runs at half the NIC rate so each burst queues at both the NIC and the
// switch port.
func TestForwardingAllocatesNothing(t *testing.T) {
	k := des.NewKernel()
	h0, h1 := NewHost(k, 0, 0), NewHost(k, 1, 1)
	sw := NewSwitch(k, 2, RouterFunc(func(_ packet.NodeID, p *packet.Packet) (int, bool) {
		return int(p.Dst), true // port i faces host i
	}))
	nic := LinkConfig{BandwidthBps: 10 * gbps, PropDelay: des.Microsecond, QueueBytes: 1 << 20}
	egress := LinkConfig{BandwidthBps: 5 * gbps, PropDelay: des.Microsecond, QueueBytes: 1 << 20}
	Connect(h0.AttachNIC(nic), sw.AddPort(egress))
	Connect(h1.AttachNIC(nic), sw.AddPort(egress))

	const burst = 32
	free := make([]*packet.Packet, 0, burst)
	for i := 0; i < burst; i++ {
		free = append(free, &packet.Packet{Src: 0, Dst: 1, PayloadLen: packet.MSS})
	}
	h1.Handler = func(p *packet.Packet) { free = append(free, p) }
	bursts := 0
	send := func() {
		bursts++
		for len(free) > 0 {
			p := free[len(free)-1]
			free = free[:len(free)-1]
			p.TTL, p.Hops, p.SendTime = 0, 0, 0
			h0.Send(p)
		}
		k.RunAll()
	}
	send() // warm the pool and grow the FIFO arrays
	if allocs := testing.AllocsPerRun(20, send); allocs != 0 {
		t.Errorf("%.1f allocs per %d-packet burst (%d hops), want 0", allocs, burst, 2*burst)
	}
	if got, want := h1.RxPackets, uint64(bursts*burst); got != want {
		t.Errorf("delivered %d packets, want %d", got, want)
	}
	if q := sw.Port(1).Stats().MaxQueue; q == 0 {
		t.Error("switch egress never queued; the burst does not exercise the FIFO")
	}
}

// A queue that never drains still reuses one backing array: once the
// dequeued prefix is at least half the array, the live packets slide to the
// front instead of the array growing, and FIFO order survives the slide.
func TestStandingQueueKeepsItsArray(t *testing.T) {
	k := des.NewKernel()
	port, dst := mkLink(t, k, LinkConfig{BandwidthBps: gbps, QueueBytes: 1 << 20})
	seq := uint32(0)
	send := func() {
		port.Send(&packet.Packet{Seq: seq, PayloadLen: 100})
		seq++
	}
	for i := 0; i < 8; i++ {
		send()
	}
	for i := 0; i < 1000; i++ { // one in, one out: the depth stays at 7
		send()
		for head := port.qhead; port.qhead == head && len(port.queue) > 0; {
			k.Step()
		}
	}
	if c := cap(port.queue); c > 32 {
		t.Errorf("standing queue of 7 grew its array to %d", c)
	}
	k.RunAll()
	if len(dst.got) != int(seq) {
		t.Fatalf("delivered %d packets, want %d", len(dst.got), seq)
	}
	for i, p := range dst.got {
		if p.Seq != uint32(i) {
			t.Fatalf("delivery %d carried seq %d", i, p.Seq)
		}
	}
}
