package netsim

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// A port that serializes with nothing queued completes its tx-done lazily
// (see Port). These tests pin that the lazy completion is indistinguishable
// from the event it replaces: a Send or a Stats read at exactly busyUntil
// sees the transmitter busy when ordered before the tx-done would have run,
// and idle after it.

const phantomPayload = 1000

// phantomLink returns a port, the sink behind it, and the time the port's
// first packet finishes serializing when sent at zero.
func phantomLink(t *testing.T) (*des.Kernel, *Port, *sink, des.Time) {
	t.Helper()
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: gbps, PropDelay: 500, QueueBytes: 1 << 20}
	p, dst := mkLink(t, k, cfg)
	pkt := &packet.Packet{PayloadLen: phantomPayload}
	return k, p, dst, cfg.SerializationDelay(pkt.Size())
}

func wantTx(t *testing.T, name string, p *Port, pkts uint64) {
	t.Helper()
	st := p.Stats()
	size := uint64((&packet.Packet{PayloadLen: phantomPayload}).Size())
	if st.TxPackets != pkts || st.TxBytes != pkts*size {
		t.Errorf("%s: TxPackets=%d TxBytes=%d, want %d and %d",
			name, st.TxPackets, st.TxBytes, pkts, pkts*size)
	}
}

// An event at busyUntil ordered before the phantom (band 0, scheduled before
// the transmission reserved its seq) finds the port busy: its packet queues
// and leaves only when the armed tx-done fires.
func TestSendAtBusyUntilBeforePhantomQueues(t *testing.T) {
	k, p, dst, ser := phantomLink(t)
	k.At(ser, func() {
		wantTx(t, "before the phantom", p, 0)
		p.Send(&packet.Packet{Seq: 2, PayloadLen: phantomPayload})
		if p.QueuedBytes() == 0 {
			t.Error("send before the phantom did not queue")
		}
	})
	k.At(0, func() { p.Send(&packet.Packet{Seq: 1, PayloadLen: phantomPayload}) })
	k.RunAll()
	wantTx(t, "drained", p, 2)
	if len(dst.at) != 2 || dst.at[1] != 2*ser+500 {
		t.Fatalf("arrivals at %v, want the second at %v", dst.at, 2*ser+500)
	}
}

// An event at busyUntil ordered after the phantom — a higher seq in band 0,
// or any later band — finds the port idle: the packet goes on the wire at
// once and nothing queues.
func TestSendAtBusyUntilAfterPhantomTransmits(t *testing.T) {
	for _, band := range []uint8{0, 1} {
		k, p, dst, ser := phantomLink(t)
		after := func() {
			wantTx(t, "after the phantom", p, 1)
			p.Send(&packet.Packet{Seq: 2, PayloadLen: phantomPayload})
			if p.QueuedBytes() != 0 {
				t.Errorf("band %d: send after the phantom queued", band)
			}
		}
		if band == 0 {
			k.At(0, func() {
				p.Send(&packet.Packet{Seq: 1, PayloadLen: phantomPayload})
				k.At(ser, after) // scheduled after the reservation: higher seq
			})
		} else {
			k.AtCtxFn(ser, band, 0, nil, func(any) { after() })
			k.At(0, func() { p.Send(&packet.Packet{Seq: 1, PayloadLen: phantomPayload}) })
		}
		k.RunAll()
		wantTx(t, "drained", p, 2)
		if len(dst.at) != 2 || dst.at[1] != 2*ser+500 {
			t.Fatalf("band %d: arrivals at %v, want the second at %v", band, dst.at, 2*ser+500)
		}
	}
}

// Stats read between runs follows the run boundary: RunBefore(busyUntil)
// stops short of the phantom, Run(busyUntil) completes it.
func TestStatsAtRunBoundaryCountsPhantom(t *testing.T) {
	k, p, _, ser := phantomLink(t)
	p.Send(&packet.Packet{PayloadLen: phantomPayload})
	k.RunBefore(ser)
	wantTx(t, "after RunBefore(busyUntil)", p, 0)
	k.Run(ser)
	wantTx(t, "after Run(busyUntil)", p, 1)
	// The next Send completes the phantom for real and starts afresh.
	p.Send(&packet.Packet{PayloadLen: phantomPayload})
	wantTx(t, "after the next send", p, 1)
	k.RunAll()
	wantTx(t, "drained", p, 2)
}

// A packet that serializes in zero time has its tx-done at the current
// instant, where a running band-1 event is already past any band-0 key: its
// tx-done is armed at once, so a second send from the same event still
// finds the transmitter busy and queues, as it would behind the real event.
func TestZeroSerializationArmsTxDone(t *testing.T) {
	k := des.NewKernel()
	cfg := LinkConfig{BandwidthBps: 1 << 62, QueueBytes: 1 << 20}
	p, dst := mkLink(t, k, cfg)
	if ser := cfg.SerializationDelay((&packet.Packet{}).Size()); ser != 0 {
		t.Fatalf("test needs zero serialization, got %v", ser)
	}
	k.AtCtxFn(10, 1, 1, nil, func(any) {
		p.Send(&packet.Packet{Seq: 1})
		p.Send(&packet.Packet{Seq: 2})
		if p.QueuedBytes() == 0 {
			t.Error("second zero-time send did not queue behind the first")
		}
	})
	k.RunAll()
	if len(dst.got) != 2 || p.Stats().TxPackets != 2 {
		t.Fatalf("delivered %d, TxPackets %d, want 2 and 2", len(dst.got), p.Stats().TxPackets)
	}
}
