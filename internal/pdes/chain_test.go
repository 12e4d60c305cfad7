package pdes

import (
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
)

// chainSystem wires hosts 0-1-2 in a line across three LPs, so traffic from
// 0 to 2 must relay through the middle LP (via a forwarding device).
type relay struct {
	ports [2]*netsim.Port
}

func (r *relay) NodeID() packet.NodeID { return 500 }
func (r *relay) Receive(p *packet.Packet, inPort int) {
	r.ports[1-inPort].Send(p)
}

func TestThreeLPChainDelivery(t *testing.T) {
	s := NewSystem(3)
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 26}
	a := netsim.NewHost(s.LP(0).Kernel(), 0, 0)
	mid := &relay{}
	mid.ports[0] = netsim.NewPort(s.LP(1).Kernel(), mid, 0, cfg)
	mid.ports[1] = netsim.NewPort(s.LP(1).Kernel(), mid, 1, cfg)
	b := netsim.NewHost(s.LP(2).Kernel(), 2, 2)

	if err := s.Connect(s.LP(0), a.AttachNIC(cfg), s.LP(1), mid.ports[0], a, mid, 5*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(s.LP(1), mid.ports[1], s.LP(2), b.AttachNIC(cfg), mid, b, 5*des.Microsecond); err != nil {
		t.Fatal(err)
	}

	var at []des.Time
	b.Handler = func(p *packet.Packet) { at = append(at, s.LP(2).Kernel().Now()) }
	s.LP(0).Kernel().Schedule(0, func() {
		for i := 0; i < 5; i++ {
			a.Send(&packet.Packet{Src: 0, Dst: 2, PayloadLen: 934})
		}
	})
	s.Run(des.Millisecond)
	if len(at) != 5 {
		t.Fatalf("delivered %d of 5 across a 3-LP chain", len(at))
	}
	// First arrival: 2x (8us serialization + 5us lookahead) = 26us.
	if at[0] != 26*des.Microsecond {
		t.Errorf("first arrival at %v, want 26us", at[0])
	}
	for i := 1; i < len(at); i++ {
		if at[i] <= at[i-1] {
			t.Fatal("chain deliveries out of order")
		}
	}
}

func TestLookaheadMergeTakesMinimum(t *testing.T) {
	// Two links between the same LP pair with different lookaheads: the
	// channel promise must honor the smaller one.
	s := NewSystem(2)
	cfg := netsim.LinkConfig{BandwidthBps: 1e9, QueueBytes: 1 << 20}
	a1 := netsim.NewHost(s.LP(0).Kernel(), 0, 0)
	a2 := netsim.NewHost(s.LP(0).Kernel(), 1, 1)
	b1 := netsim.NewHost(s.LP(1).Kernel(), 2, 2)
	b2 := netsim.NewHost(s.LP(1).Kernel(), 3, 3)
	if err := s.Connect(s.LP(0), a1.AttachNIC(cfg), s.LP(1), b1.AttachNIC(cfg), a1, b1, 100*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect(s.LP(0), a2.AttachNIC(cfg), s.LP(1), b2.AttachNIC(cfg), a2, b2, 10*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := s.LP(0).outs[0].lookahead; got != 10*des.Microsecond {
		t.Errorf("merged lookahead = %v, want 10us (the minimum)", got)
	}
	// And the system still runs correctly with the merged channel.
	got := 0
	b1.Handler = func(*packet.Packet) { got++ }
	b2.Handler = func(*packet.Packet) { got++ }
	s.LP(0).Kernel().Schedule(0, func() {
		a1.Send(&packet.Packet{Src: 0, Dst: 2, PayloadLen: 100})
		a2.Send(&packet.Packet{Src: 1, Dst: 3, PayloadLen: 100})
	})
	s.Run(des.Millisecond)
	if got != 2 {
		t.Errorf("delivered %d of 2 over merged channels", got)
	}
}

func TestManyFlowsManyLPsStress(t *testing.T) {
	// 8 racks over 4 LPs, bidirectional TCP between all rack pairs.
	net, err := Build(topology.DefaultLeafSpineConfig(8), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	id := uint64(1)
	for src := 0; src < 32; src += 4 {
		for dst := 2; dst < 32; dst += 7 {
			if src == dst {
				continue
			}
			src, dst := packet.HostID(src), packet.HostID(dst)
			stack := net.Stacks[src]
			lp := net.Sys.LP(net.lpOf[src])
			flowID := id
			id++
			lp.Kernel().At(des.Microsecond, func() {
				stack.StartFlow(dst, 30_000, flowID, func(tcp.FlowResult) { done++ })
			})
		}
	}
	want := int(id - 1)
	net.Sys.Run(2 * des.Second)
	if done != want {
		t.Errorf("%d of %d flows completed in 4-LP stress", done, want)
	}
	if net.Sys.Stats()[CrossPkts] == 0 {
		t.Error("stress run never crossed an LP boundary")
	}
}
