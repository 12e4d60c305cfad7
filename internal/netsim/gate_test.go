package netsim_test

import (
	"sync"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/pdes"
)

// sinkDev is a device that accepts every packet.
type sinkDev struct{ id packet.NodeID }

func (d sinkDev) NodeID() packet.NodeID           { return d.id }
func (d sinkDev) Receive(_ *packet.Packet, _ int) {}

// A port's counters are plain fields of the goroutine that runs its kernel,
// so a sampler reads them mid-run only through the gate of the System that
// owns the kernel, which holds the run at a safepoint for the collection.
// Under -race this checks that every read goes through the gate; every
// reading must lie between zero and the final count, and the final reading
// is exact.
func TestStatsConcurrentReader(t *testing.T) {
	sys := pdes.NewSystem(1)
	k := sys.LP(0).Kernel()
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, PropDelay: 500, QueueBytes: 1 << 20}
	p := netsim.NewPort(k, sinkDev{1}, 0, cfg)
	netsim.Connect(p, netsim.NewPort(k, sinkDev{2}, 0, cfg))
	reg := metrics.NewRegistry()
	reg.AddGate(sys)
	reg.Register("netsim", p)

	const n = 2000
	ser := cfg.SerializationDelay((&packet.Packet{PayloadLen: 1000}).Size())
	for i := 0; i < n; i++ {
		// Alternate back-to-back and spaced sends, so the port flips between
		// armed tx-dones and phantoms.
		at := des.Time(i) * ser
		if i%3 == 0 {
			at += ser / 2
		}
		k.At(at, func() { p.Send(&packet.Packet{PayloadLen: 1000}) })
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if tx := reg.Snapshot().Counter("netsim", "tx_packets"); tx > n {
				t.Errorf("mid-run TxPackets = %d, more than the %d sent", tx, n)
				return
			}
		}
	}()
	if err := sys.Run(des.Time(n+1) * ser); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	st := p.Stats()
	if st.TxPackets+st.Drops != n {
		t.Fatalf("TxPackets %d + Drops %d != %d sent", st.TxPackets, st.Drops, n)
	}
}
