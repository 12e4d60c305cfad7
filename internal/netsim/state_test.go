package netsim

import (
	"fmt"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// savePkt / restorePkt mirror what the pdes engine passes to kernel
// Snapshot/Restore: in-flight packets ride as event contexts and are
// checkpointed by value.
func savePkt(ctx any) any { return *ctx.(*packet.Packet) }
func restorePkt(ctx, blob any) {
	*ctx.(*packet.Packet) = blob.(packet.Packet)
}

// twoHostLink wires two hosts back to back over one duplex link.
func twoHostLink(t *testing.T, cfg LinkConfig) (*des.Kernel, *Host, *Host) {
	t.Helper()
	k := des.NewKernel()
	a := NewHost(k, 0, 0)
	b := NewHost(k, 1, 1)
	Connect(a.AttachNIC(cfg), b.AttachNIC(cfg))
	return k, a, b
}

// TestDeviceSnapshotReplaysIdentically takes a mid-flight checkpoint — with
// packets both queued at the NIC and serializing on the wire — runs to
// completion, rolls everything back, and reruns. Both executions must deliver
// the same packets at the same times.
func TestDeviceSnapshotReplaysIdentically(t *testing.T) {
	cfg := LinkConfig{BandwidthBps: 1e9, PropDelay: des.Microsecond, QueueBytes: 1 << 20}
	k, a, b := twoHostLink(t, cfg)

	var arrivals []des.Time
	b.Handler = func(p *packet.Packet) { arrivals = append(arrivals, k.Now()) }
	for i := 0; i < 5; i++ {
		k.Schedule(0, func() {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 1000})
		})
	}

	// Run into the middle of the burst: some delivered, some queued.
	k.Run(20 * des.Microsecond)
	if a.NIC().QueuedBytes() == 0 {
		t.Fatal("test needs packets still queued at the checkpoint")
	}
	ks := k.Snapshot(savePkt)
	aSt, bSt := a.SaveState(), b.SaveState()
	savedArrivals := append([]des.Time(nil), arrivals...)
	savedQueued := a.NIC().QueuedBytes()

	k.RunAll()
	first := append([]des.Time(nil), arrivals...)
	if len(first) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(first))
	}

	// Roll back and replay.
	k.Restore(ks, restorePkt)
	a.RestoreState(aSt)
	b.RestoreState(bSt)
	arrivals = append([]des.Time(nil), savedArrivals...)
	if got := a.NIC().QueuedBytes(); got != savedQueued {
		t.Fatalf("restored NIC queue holds %d bytes, snapshot had %d", got, savedQueued)
	}
	k.RunAll()
	if len(arrivals) != len(first) {
		t.Fatalf("replay delivered %d packets, first run %d", len(arrivals), len(first))
	}
	for i := range arrivals {
		if arrivals[i] != first[i] {
			t.Errorf("replay arrival %d at %v, first run at %v", i, arrivals[i], first[i])
		}
	}
	if b.RxPackets != 5 {
		t.Errorf("host counted %d received packets after replay, want 5", b.RxPackets)
	}
}

// TestDeviceCheckpointStaysPristine restores the same checkpoint twice;
// a checkpoint consumed by its first restore would corrupt the second.
func TestDeviceCheckpointStaysPristine(t *testing.T) {
	cfg := LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 20}
	k, a, b := twoHostLink(t, cfg)
	delivered := 0
	b.Handler = func(p *packet.Packet) { delivered++ }
	for i := 0; i < 4; i++ {
		k.Schedule(0, func() {
			a.Send(&packet.Packet{Src: 0, Dst: 1, PayloadLen: 1000})
		})
	}
	k.Run(10 * des.Microsecond)
	ks := k.Snapshot(savePkt)
	aSt := a.SaveState()
	base := delivered

	for round := 0; round < 2; round++ {
		k.Restore(ks, restorePkt)
		a.RestoreState(aSt)
		delivered = base
		k.RunAll()
		if delivered != 4 {
			t.Fatalf("round %d delivered %d packets, want 4", round, delivered)
		}
	}
}

// TestSwitchSaveRestore covers the switch saver: route-drop counters and
// per-port queue state round-trip, and post-snapshot mutations are undone.
func TestSwitchSaveRestore(t *testing.T) {
	k := des.NewKernel()
	sw := NewSwitch(k, 100, RouterFunc(func(packet.NodeID, *packet.Packet) (int, bool) {
		return 0, false // no route: every packet is a route drop
	}))
	cfg := LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 20}
	sw.AddPort(cfg)
	sw.Receive(&packet.Packet{Src: 0, Dst: 9, PayloadLen: 100, TTL: 64}, 0)
	if sw.RouteDrops != 1 {
		t.Fatalf("RouteDrops = %d, want 1", sw.RouteDrops)
	}
	st := sw.SaveState()
	sw.Receive(&packet.Packet{Src: 0, Dst: 9, PayloadLen: 100, TTL: 64}, 0)
	sw.RestoreState(st)
	if sw.RouteDrops != 1 {
		t.Errorf("RouteDrops = %d after restore, want 1", sw.RouteDrops)
	}
}

// TestPortStateRoundTripPartlyDrained checkpoints a port whose FIFO has
// already dequeued some packets (a nonzero head index) and restores it both
// after the queue has drained and while it is partly drained again: the
// restored FIFO must hold the same packets in the same order with the same
// byte count, and the replay must deliver exactly what the first run
// delivered after the checkpoint. It then does the same for a port whose
// tx-done is a pending phantom.
func TestPortStateRoundTripPartlyDrained(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 20}
	port, dst := mkLink(t, k, cfg)
	for i := 0; i < 6; i++ {
		port.Send(&packet.Packet{Seq: uint32(i), PayloadLen: int32(100 * (i + 1))})
	}
	for port.qhead < 2 {
		k.Step()
	}
	fifo := func() (seqs []uint32) {
		for _, p := range port.queue[port.qhead:] {
			seqs = append(seqs, p.Seq)
		}
		return seqs
	}
	delivered := func(from int) (seqs []uint32) {
		for _, p := range dst.got[from:] {
			seqs = append(seqs, p.Seq)
		}
		return seqs
	}
	st := port.SaveState()
	ks := k.Snapshot(savePkt)
	queued, wantFIFO, before := port.QueuedBytes(), fifo(), len(dst.got)

	k.RunAll() // drains the FIFO and rewinds it to the array's start
	first := delivered(before)
	restore := func(when string) {
		port.RestoreState(st)
		k.Restore(ks, restorePkt)
		dst.got = dst.got[:before]
		if got := port.QueuedBytes(); got != queued {
			t.Fatalf("%s: restored queue holds %d bytes, snapshot had %d", when, got, queued)
		}
		if got := fifo(); fmt.Sprint(got) != fmt.Sprint(wantFIFO) {
			t.Fatalf("%s: restored FIFO order %v, want %v", when, got, wantFIFO)
		}
	}
	restore("after drain")
	for port.qhead == 0 { // partly drained again
		k.Step()
	}
	restore("mid-drain")
	k.RunAll()
	if got := delivered(before); fmt.Sprint(got) != fmt.Sprint(first) {
		t.Fatalf("replay delivered %v, first run %v", got, first)
	}
	if port.QueuedBytes() != 0 {
		t.Errorf("queue holds %d bytes after the replay drained it", port.QueuedBytes())
	}

	// An unarmed phantom pending: one packet on the wire, none queued. The
	// restored port must neither count it early nor lose it, and a packet
	// that queues behind it after the restore must arm it in its place.
	port.Send(&packet.Packet{Seq: 6, PayloadLen: 100})
	if port.phantom == 0 {
		t.Fatal("a lone transmission did not leave a phantom tx-done")
	}
	st, ks = port.SaveState(), k.Snapshot(savePkt)
	pending, before := port.Stats(), len(dst.got)
	k.RunAll()
	drained := port.Stats()
	if drained.TxPackets != pending.TxPackets+1 {
		t.Fatalf("phantom charged %d packets, want 1", drained.TxPackets-pending.TxPackets)
	}
	port.RestoreState(st)
	k.Restore(ks, restorePkt)
	dst.got = dst.got[:before]
	if port.phantom == 0 || port.Stats() != pending {
		t.Fatalf("restored phantom %d, stats %+v, want pending with %+v", port.phantom, port.Stats(), pending)
	}
	port.Send(&packet.Packet{Seq: 7, PayloadLen: 100})
	if port.phantom != 0 || port.QueuedBytes() == 0 {
		t.Fatalf("send behind the restored phantom: phantom %d, queued %d bytes", port.phantom, port.QueuedBytes())
	}
	k.RunAll()
	if got := delivered(before); fmt.Sprint(got) != "[6 7]" {
		t.Fatalf("after the phantom restore delivered %v, want [6 7]", got)
	}
	if got := port.Stats().TxPackets; got != pending.TxPackets+2 {
		t.Errorf("TxPackets %d after the phantom restore, want %d", got, pending.TxPackets+2)
	}
}
