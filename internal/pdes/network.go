package pdes

import (
	"fmt"
	"sync/atomic"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
	"approxsim/internal/obs"
	"approxsim/internal/packet"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// Network is a data-center fabric partitioned across logical processes: the
// Fig. 1 leaf-spine or the paper's Fig. 2 three-tier Clos, wired from the
// topology's link plan. A block — a rack (a ToR and its servers) on a
// leaf-spine, a whole cluster (servers, ToRs and aggregation switches) on a
// Clos — is pinned contiguously to an LP, so every intra-block link stays
// LP-local. The fabric tier (spines or cores) is scattered round-robin across
// the LPs (see partition.go), and only links into it can cross an LP
// boundary.
type Network struct {
	Sys    *System
	Cfg    topology.Config
	Hosts  []*netsim.Host
	Stacks []*tcp.Stack
	// Switches holds every switch in NodeID order: the ToRs, the aggregation
	// switches (spines on a leaf-spine), then the cores.
	Switches []*netsim.Switch
	// Partition describes the placement the build committed to (cut size,
	// active channels, load spread). Never nil after Build.
	Partition *PartitionStats
	// Collectives are the closed-loop workload instances installed by
	// WithCollectives, in option order (empty otherwise).
	Collectives []*collective.Instance

	specs []traffic.FlowSpec // the scheduled open-loop workload
	lpOf  []int              // owning LP by NodeID
	wires []wire             // every link in plan order, with its two ports

	// active[from*lps+to] marks the channels the healthy network keeps live:
	// those the declared workload's fabric crossings use (see weights). The
	// rest are promised idle; a packet on one still flows, but trips the
	// QuiescentSends counter, the loud breach detector for this analysis.
	active []bool

	// faults is the current schedule (see SetFaults); faultGen counts
	// SetFaults calls, so a trace instant can tell it belongs to a replaced
	// schedule.
	faults   *faults.Schedule
	faultGen uint64
}

// wire is one link of the plan and the port at each of its ends.
type wire struct {
	a, b   packet.NodeID
	pa, pb *netsim.Port
}

// layout is the build-time view of how a config splits into partition units,
// read off the topology's wiring plan.
type layout struct {
	cfg        topology.Config
	links      []topology.Link
	unit       string            // what a block is: "rack" or "cluster"
	blocks     int               // racks (leaf-spine) or clusters (Clos)
	fabricBase packet.NodeID     // first fabric switch: the spines or the cores
	peers      [][]packet.NodeID // peers[id][port]: the device behind each port
}

func newLayout(cfg topology.Config) *layout {
	_, agg, core := cfg.Bases()
	l := &layout{cfg: cfg, links: cfg.Links(), unit: "cluster", blocks: cfg.Clusters,
		fabricBase: core, peers: make([][]packet.NodeID, cfg.NumNodes())}
	if cfg.Kind == topology.LeafSpine {
		l.unit, l.blocks, l.fabricBase = "rack", cfg.NumToRs(), agg
	}
	for _, ln := range l.links {
		l.peers[ln.A] = append(l.peers[ln.A], ln.B)
		l.peers[ln.B] = append(l.peers[ln.B], ln.A)
	}
	return l
}

// fabric returns the number of fabric switches.
func (l *layout) fabric() int { return l.cfg.NumNodes() - int(l.fabricBase) }

// block returns the block of a device below the fabric. Each such tier
// divides evenly into the blocks, in NodeID order.
func (l *layout) block(id packet.NodeID) int {
	tor, agg, _ := l.cfg.Bases()
	switch {
	case id < tor:
		return int(id) / (l.cfg.NumHosts() / l.blocks)
	case id < agg:
		return int(id-tor) / (l.cfg.NumToRs() / l.blocks)
	default:
		return int(id-agg) / (l.cfg.NumAggs() / l.blocks)
	}
}

// flowPkts estimates the packet-event cost of one flow direction: data
// segments forward, one ACK per segment back (plus the handshake). Only
// relative magnitudes matter — the estimates weight the blocks for placement,
// they are never compared against measured counters.
func flowPkts(size int64) float64 {
	segs := (size + packet.MSS - 1) / packet.MSS
	if segs < 1 {
		segs = 1
	}
	return float64(segs + 1)
}

// fabricPin returns the fabric switch (index above fabricBase) the healthy
// fabric routes the src→dst direction of flow id through. ECMP hashes only
// the switch, the packet's Src/Dst/FlowID and the seed — fields identical on
// every packet of a direction, retransmissions included — so the pin is
// exact. The walk follows topology.RouteOn up the wiring plan from the source
// ToR; false means the route turns down before reaching the fabric.
func (l *layout) fabricPin(src, dst packet.HostID, id uint64) (int, bool) {
	probe := packet.Packet{Src: src, Dst: dst, FlowID: id}
	for node := l.peers[src][0]; ; {
		port, ok := topology.RouteOn(&l.cfg, nil, 0, node, &probe)
		if !ok {
			return 0, false
		}
		next := l.peers[node][port]
		if next >= l.fabricBase {
			return int(next - l.fabricBase), true
		}
		if next < node {
			return 0, false // turned down toward the destination
		}
		node = next
	}
}

// weigh makes the one pass over the declared workload (see weights).
func (l *layout) weigh(specs []traffic.FlowSpec) *weights {
	w := &weights{block: make([]float64, l.blocks), fabric: make([]float64, l.fabric()),
		crossings: make([]crossing, 0, 2*len(specs))}
	for b := range w.block {
		w.block[b] = float64(int(l.fabricBase) / l.blocks) // device-count baseline
		if len(specs) == 0 {
			// Nothing declared proves a channel idle: every block may cross
			// every fabric switch, both ways.
			for f := range w.fabric {
				w.crossings = append(w.crossings, crossing{b, b, f})
			}
		}
	}
	for f := range w.fabric {
		w.fabric[f] = 1
	}
	var maxAt des.Time
	for _, sp := range specs {
		if sp.At > maxAt {
			maxAt = sp.At
		}
	}
	// A flow can transfer at most line rate × the virtual time left before the
	// horizon; estimating its full size would overweight late large flows the
	// run will truncate.
	bytesPerNs := float64(l.cfg.HostLink.BandwidthBps) / 8e9
	for _, sp := range specs {
		size := sp.Size
		if cap := int64(float64(maxAt-sp.At) * bytesPerNs); cap < size {
			size = cap
		}
		pk := flowPkts(size)
		src, dst := l.block(packet.NodeID(sp.Src)), l.block(packet.NodeID(sp.Dst))
		// An endpoint block runs ~3 events per packet (host link hop, ToR hop,
		// TCP processing/timers) in each direction; a fabric switch runs ~1
		// per traversal. The ratio, not the absolute scale, is what matters:
		// it sets where placeBlocks cuts.
		w.block[src] += 3 * pk
		w.block[dst] += 3 * pk
		if src == dst {
			continue // never leaves the block
		}
		// Data: src → forward pin → dst; ACKs: dst → reverse pin → src.
		if f, ok := l.fabricPin(sp.Src, sp.Dst, sp.ID); ok {
			w.fabric[f] += pk
			w.crossings = append(w.crossings, crossing{src, dst, f})
		}
		if f, ok := l.fabricPin(sp.Dst, sp.Src, sp.ID); ok {
			w.fabric[f] += pk
			w.crossings = append(w.crossings, crossing{dst, src, f})
		}
	}
	return w
}

// Build constructs cfg — a topology.LeafSpine or topology.ThreeTierClos
// config — on lps logical processes and schedules specs on it, each flow
// starting at its At on its source host's LP. Options are passed through to
// NewSystem; every device and stack is registered as a rollback saver on its
// owning LP, so the network is ready for any synchronization algorithm
// including Time Warp.
//
// specs, together with any WithCollectives flow catalog, are also the
// declared workload. One pass over it weights the blocks for placement and
// records the fabric crossings that prove cross-LP channels idle (channel
// quiescence, see SetFaults); both feed the PartitionStats. Declaring and
// scheduling in one call keeps the two identical — the soundness condition of
// quiescence.
func Build(cfg topology.Config, lps int, specs []traffic.FlowSpec, opts ...Option) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := newLayout(cfg)
	if lps < 1 || lps > l.blocks {
		return nil, fmt.Errorf("pdes: lps = %d, need 1..%d (one %s per LP minimum)", lps, l.blocks, l.unit)
	}
	n := &Network{Sys: NewSystem(lps, opts...), Cfg: cfg, specs: specs}
	// WithFaults only carries the schedule here: SetFaults, below, keeps the
	// network's copy, the only one.
	sched := n.Sys.cfg.faults
	n.Sys.cfg.faults = nil
	if err := sched.Validate(); err != nil {
		return nil, err
	}

	// Placement (see partition.go): blocks in contiguous runs cut by block
	// weight, fabric switch f on LP f % lps. Collective instances are resolved
	// first so the declared workload is exactly the flows that will run:
	// open-loop schedule plus the full closed-loop flow catalog. No fault
	// schedule enters it, so a healthy pool baseline and a cold faulted build
	// of one family place and report identically.
	insts, declared, err := buildCollectives(n.Sys.cfg.collectives, specs, cfg.NumHosts(), cfg.HostLink.BandwidthBps)
	if err != nil {
		return nil, err
	}
	n.Collectives = insts
	w := l.weigh(declared)
	blockLP := placeBlocks(w.block, lps)
	fabricLP := make([]int, l.fabric())
	for f := range fabricLP {
		fabricLP[f] = f % lps
	}
	n.Partition, n.active = partitionStats(w, blockLP, fabricLP, lps, int(l.fabricBase)/l.blocks)
	n.lpOf = make([]int, cfg.NumNodes())
	for id := range n.lpOf {
		if nid := packet.NodeID(id); nid >= l.fabricBase {
			n.lpOf[id] = fabricLP[nid-l.fabricBase]
		} else {
			n.lpOf[id] = blockLP[l.block(nid)]
		}
	}

	// Devices, each on its LP's kernel and in its LP's rollback saver list:
	// switches in NodeID order, then each host with its stack. When the
	// system carries a tracer, every device emits on its owning LP's Buf (LP =
	// Perfetto process, device = named thread track); the Tracer/Buf methods
	// are nil-safe, so the untraced path costs nothing.
	tr := n.Sys.Tracer()
	// A fabric that marks ECN is a DCTCP fabric (see core.Config.DCTCP):
	// its hosts run the proportional ECN response.
	tcpCfg := tcp.Config{DCTCP: cfg.FabricLink.ECNThresholdBytes > 0}
	tor, _, _ := cfg.Bases()
	for id := tor; int(id) < cfg.NumNodes(); id++ {
		lp := n.Sys.LP(n.lpOf[id])
		sw := netsim.NewSwitch(lp.Kernel(), id, n)
		sw.SetTrace(lp.Trace())
		tr.NameThread(int32(lp.ID()), int32(id), cfg.NodeName(id))
		lp.AddSaver(sw)
		n.Switches = append(n.Switches, sw)
	}
	for h := 0; h < cfg.NumHosts(); h++ {
		lp := n.Sys.LP(n.lpOf[h])
		host := netsim.NewHost(lp.Kernel(), packet.HostID(h), packet.NodeID(h))
		stack := tcp.NewStack(host, tcpCfg)
		host.SetTrace(lp.Trace())
		stack.SetTrace(lp.Trace())
		tr.NameThread(int32(lp.ID()), int32(h), cfg.NodeName(packet.NodeID(h)))
		lp.AddSaver(host)
		lp.AddSaver(stack)
		n.Hosts = append(n.Hosts, host)
		n.Stacks = append(n.Stacks, stack)
	}
	installCollectives(insts, n.Stacks, n.lpOf, n.Sys)

	// Links, in plan order. A fabric link whose ends land on different LPs is
	// built with zero propagation delay, which System.Connect re-adds as the
	// channel's lookahead. Fabric arrivals are banded and keyed on EVERY
	// fabric link, local or crossing: the committed event order at a
	// timestamp is then a property of the topology, not of which partition
	// happened to make a link local (see netsim.LinkConfig.ArrivalBand,
	// LP.ingest).
	nic := cfg.NICLink()
	for _, ln := range l.links {
		la, lb := n.Sys.LP(n.lpOf[ln.A]), n.Sys.LP(n.lpOf[ln.B])
		lc, lookahead := ln.Cfg, des.Time(0)
		if ln.Fabric {
			lc.ArrivalBand = 1
			lookahead = lc.PropDelay
			if la != lb {
				lc.PropDelay = 0
			}
		}
		var a netsim.Device
		var pa *netsim.Port
		if sw := n.switchByID(ln.A); sw != nil {
			a, pa = sw, sw.AddPort(lc)
		} else {
			host := n.Hosts[ln.A]
			a, pa = host, host.AttachNIC(nic)
		}
		b := n.switchByID(ln.B)
		pb := b.AddPort(lc)
		if err := n.Sys.Connect(la, pa, lb, pb, a, b, lookahead); err != nil {
			return nil, err
		}
		n.wires = append(n.wires, wire{ln.A, ln.B, pa, pb})
	}

	if err := n.SetFaults(sched); err != nil {
		return nil, err
	}

	for _, sp := range specs {
		stack := n.Stacks[sp.Src]
		n.Sys.LP(n.lpOf[sp.Src]).Kernel().At(sp.At, func() {
			stack.StartFlow(sp.Dst, sp.Size, sp.ID, nil)
		})
	}
	return n, nil
}

// SetFaults makes sched (nil = healthy) the network's fault schedule. It is
// the one way a schedule reaches a network: Build calls it for the WithFaults
// schedule, and a fork calls it after System.Restore. Only legal between runs
// (at quiescence); fault state is a pure function of virtual time, so the
// next Run simply reads the new schedule.
//
// Down closures go only on the links and switches sched touches; every other
// port and switch keeps a nil Down and pays nothing. Each fault's fail,
// detect and recover instants are scheduled on the kernel of the switch
// involved (for a link fault between two LPs, on both); an instant left from
// a replaced schedule emits nothing, and one already in the past is skipped.
// Channel quiescence follows the schedule: while it is empty the active set
// Build proved applies, otherwise every channel is live, since failure
// rerouting moves flows onto fabric switches that analysis proved idle.
func (n *Network) SetFaults(sched *faults.Schedule) error {
	if sched == nil {
		sched = &faults.Schedule{}
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	n.faults = sched
	n.faultGen++
	for _, w := range n.wires {
		var down func(des.Time) bool
		if sched.TouchesLink(w.a, w.b) {
			down = func(at des.Time) bool { return sched.PathDown(w.a, w.b, at) }
		}
		w.pa.Down, w.pb.Down = down, down
	}
	for _, sw := range n.Switches {
		sw.Down = nil
	}
	for _, f := range sched.Faults {
		a, b := n.switchByID(f.A), n.switchByID(f.B)
		if f.Kind == faults.SwitchFault {
			b = nil // B means nothing for a switch fault
			if a != nil {
				a.Down = func(at des.Time) bool { return sched.SwitchDown(f.A, at) }
			}
		} else if a != nil && b != nil && a.Kernel() == b.Kernel() {
			b = nil // one LP marks the link once, on A's track
		}
		for _, sw := range []*netsim.Switch{a, b} {
			if sw != nil {
				n.markFault(sw, f)
			}
		}
	}
	active := n.active
	if !sched.Empty() {
		active = nil // failure rerouting may use any channel
	}
	n.Sys.limitChannels(active)
	return nil
}

// markFault schedules f's fail, detect and recover trace instants as
// ordinary events on sw's kernel. They carry no simulation state — fault
// state itself is a pure function of time — and exist so the outage windows
// show in the Chrome trace next to the packet lifecycle they explain.
func (n *Network) markFault(sw *netsim.Switch, f faults.Fault) {
	k, gen, tid := sw.Kernel(), n.faultGen, int32(sw.NodeID())
	emit := func(at des.Time, name string) {
		if at < k.Now() {
			return
		}
		k.At(at, func() {
			buf := sw.TraceBuf()
			if buf == nil || n.faultGen != gen {
				return
			}
			buf.Emit(obs.Event{TS: k.Now(), Ph: obs.PhInstant,
				Name: name, Cat: "faults", Tid: tid,
				K1: "a", V1: int64(f.A), K2: "b", V2: int64(f.B)})
		})
	}
	kind := f.Kind.String()
	emit(f.At, kind+"_fail")
	emit(f.At+f.Detect, "fault_detected")
	if f.Recover > 0 {
		emit(f.Recover, kind+"_recover")
	}
}

// Topology exposes the devices of a one-LP network as a topology.Topology on
// that LP's kernel, for the packages that act on one: boundary capture, the
// approximation splice and model features. Its Route is the healthy
// arithmetic; the switches keep routing through the network.
func (n *Network) Topology() (*topology.Topology, error) {
	if lps := n.Sys.NumLPs(); lps != 1 {
		return nil, fmt.Errorf("pdes: a Topology view needs one LP, the network has %d", lps)
	}
	return topology.Assemble(n.Sys.LP(0).Kernel(), n.Cfg, n.Hosts, n.Switches), nil
}

// switchByID maps a NodeID to the owning switch, nil for hosts.
func (n *Network) switchByID(id packet.NodeID) *netsim.Switch {
	tor, _, _ := n.Cfg.Bases()
	if id < tor || int(id-tor) >= len(n.Switches) {
		return nil
	}
	return n.Switches[id-tor]
}

// FaultDrops totals every packet lost to a dead link or switch across the
// fabric — the accounting that lets tests assert zero SILENT loss.
func (n *Network) FaultDrops() uint64 {
	var d uint64
	for _, sw := range n.Switches {
		d += sw.TotalFaultDrops()
	}
	for _, h := range n.Hosts {
		if nic := h.NIC(); nic != nil {
			d += nic.Stats().FaultDrops
		}
	}
	return d
}

// RouteDrops totals packets dropped for lack of any surviving route.
func (n *Network) RouteDrops() uint64 {
	var d uint64
	for _, sw := range n.Switches {
		d += atomic.LoadUint64(&sw.RouteDrops)
	}
	return d
}

// Route implements netsim.Router by delegating to the shared fault-aware
// routing arithmetic (topology.RouteOn). Under a fault schedule the view time
// is the ROUTING switch's own kernel clock: each LP evaluates the pure fault
// function at the executing event's timestamp, which is identical across sync
// algorithms and invariant under optimistic re-execution.
func (n *Network) Route(sw packet.NodeID, p *packet.Packet) (int, bool) {
	sched := n.faults
	var now des.Time
	if !sched.Empty() {
		if own := n.switchByID(sw); own != nil {
			now = own.Kernel().Now()
		}
	}
	return topology.RouteOn(&n.Cfg, sched, now, sw, p)
}

// RegisterMetrics registers every component of the experiment with reg:
// per-LP kernels under "des", the synchronization engine and the placement
// under "pdes", switches and hosts under "netsim", the TCP stacks under "tcp",
// and collective ranks under "collective". It installs the System as reg's
// gate, so a snapshot taken while the system runs collects at a safepoint.
func (n *Network) RegisterMetrics(reg *metrics.Registry) {
	reg.AddGate(n.Sys)
	for i := 0; i < n.Sys.NumLPs(); i++ {
		reg.Register("des", n.Sys.LP(i).Kernel())
	}
	reg.Register("pdes", n.Sys)
	reg.Register("pdes", n.Partition)
	for _, sw := range n.Switches {
		reg.Register("netsim", sw)
	}
	for _, h := range n.Hosts {
		reg.Register("netsim", h)
	}
	for _, st := range n.Stacks {
		reg.Register("tcp", st)
	}
	for _, in := range n.Collectives {
		for r := range in.Ranks {
			reg.Register("collective", in.Rank(r))
		}
	}
}

// FlowsStarted counts the flows the run started: the scheduled open-loop
// workload plus every flow the collective instances launched.
func (n *Network) FlowsStarted() int {
	started := len(n.specs)
	for _, in := range n.Collectives {
		started += int(in.FlowsLaunched())
	}
	return started
}

// Results gathers every flow result across all stacks.
func (n *Network) Results() []tcp.FlowResult {
	var out []tcp.FlowResult
	for _, s := range n.Stacks {
		out = append(out, s.Results()...)
	}
	return out
}
