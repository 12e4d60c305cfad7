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

	// active[from*lps+to] marks the channels the healthy workload analysis
	// proved used; nil when nothing was proved (one LP or no workload).
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
	fabricLink netsim.LinkConfig // configuration of the links into the fabric
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
		if ln.Fabric {
			l.fabricLink = ln.Cfg
		}
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
// relative magnitudes matter — the estimates weight the partitioning graph,
// they are never compared against measured counters.
func flowPkts(size int64) float64 {
	segs := (size + packet.MSS - 1) / packet.MSS
	if segs < 1 {
		segs = 1
	}
	return float64(segs + 1)
}

// fabricPins returns the fabric switches (indices above fabricBase, ascending
// and distinct) that the src→dst direction of flow id is routed through at
// any of the instants in at. ECMP hashes only the switch, the packet's
// Src/Dst/FlowID and the seed — fields identical on every packet of a
// direction, retransmissions included — so with an empty schedule the result
// is the direction's one exact pin. The walk follows topology.RouteOn up the
// wiring plan from the source ToR; a route that turns down (or finds no
// surviving port) before reaching the fabric adds nothing.
func (l *layout) fabricPins(sched *faults.Schedule, at []des.Time, src, dst packet.HostID, id uint64) []int {
	probe := packet.Packet{Src: src, Dst: dst, FlowID: id}
	seen := make([]bool, l.fabric())
	for _, now := range at {
		for node := l.peers[src][0]; ; {
			port, ok := topology.RouteOn(&l.cfg, sched, now, node, &probe)
			if !ok {
				break
			}
			next := l.peers[node][port]
			if next >= l.fabricBase {
				seen[next-l.fabricBase] = true
				break
			}
			if next < node {
				break // turned down toward the destination
			}
			node = next
		}
	}
	var pins []int
	for f, hit := range seen {
		if hit {
			pins = append(pins, f)
		}
	}
	return pins
}

// graph builds the partitioning graph: blocks and fabric switches, weighted
// by expected event rates. With a workload the per-link packet counts are
// exact a-priori (see fabricPins) — an edge weight of zero means the workload
// provably never touches that link. Without a workload every edge carries its
// normalized bandwidth instead (and nothing can be declared idle).
func (l *layout) graph(specs []traffic.FlowSpec, sched *faults.Schedule) *Graph {
	nB, nF := l.blocks, l.fabric()
	g := &Graph{
		BlockWeight:  make([]float64, nB),
		FabricWeight: make([]float64, nF),
		EdgeWeight:   make([][]float64, nB),
	}
	for b := range g.EdgeWeight {
		g.BlockWeight[b] = float64(int(l.fabricBase) / nB) // device-count baseline
		g.EdgeWeight[b] = make([]float64, nF)
	}
	for f := range g.FabricWeight {
		g.FabricWeight[f] = 1
	}
	if len(specs) == 0 {
		bw := float64(l.fabricLink.BandwidthBps) / 1e9
		for b := range g.EdgeWeight {
			for f := range g.EdgeWeight[b] {
				g.EdgeWeight[b][f] = bw
			}
		}
		return g
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
	// With a fault schedule, a flow's pin can change at each detection or
	// recovery edge; weight every fabric switch in the UNION of pre- and
	// post-failure routes at full cost, so whichever epoch the run spends
	// longest in, the weights already account for that traffic.
	samples := []des.Time{0}
	if !sched.Empty() {
		samples = sched.SampleTimes()
	}
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
		g.BlockWeight[src] += 3 * pk
		g.BlockWeight[dst] += 3 * pk
		if src == dst {
			continue // never leaves the block
		}
		for _, f := range l.fabricPins(sched, samples, sp.Src, sp.Dst, sp.ID) {
			g.FabricWeight[f] += pk
			g.EdgeWeight[src][f] += pk
			g.EdgeWeight[dst][f] += pk
		}
		for _, f := range l.fabricPins(sched, samples, sp.Dst, sp.Src, sp.ID) {
			g.FabricWeight[f] += pk
			g.EdgeWeight[dst][f] += pk
			g.EdgeWeight[src][f] += pk
		}
	}
	return g
}

// Build constructs cfg — a topology.LeafSpine or topology.ThreeTierClos
// config — on lps logical processes and schedules specs on it, each flow
// starting at its At on its source host's LP. Options are passed through to
// NewSystem; every device and stack is registered as a rollback saver on its
// owning LP, so the network is ready for any synchronization algorithm
// including Time Warp.
//
// specs, together with any WithCollectives flow catalog, are also the
// declared workload: they weight the partition graph and prove cross-LP
// channels idle (channel quiescence, see SetFaults). Declaring and scheduling
// in one call keeps the two identical — the soundness condition of both
// analyses.
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
	// weight, fabric switch f on LP f % lps. Collective instances are
	// resolved first so the declared workload — open-loop schedule plus the
	// full closed-loop flow catalog — weights the partition graph and feeds
	// channel quiescence with exactly the flows that will run. Block weights
	// read only that workload, never the fault schedule, so a healthy pool
	// baseline and a cold faulted build of one family place their blocks
	// identically.
	insts, declared, err := buildCollectives(n.Sys.cfg.collectives, specs, cfg.NumHosts(), cfg.HostLink.BandwidthBps)
	if err != nil {
		return nil, err
	}
	n.Collectives = insts
	g := l.graph(declared, sched)
	blockLP := placeBlocks(g.BlockWeight, lps)
	fabricLP := make([]int, l.fabric())
	for f := range fabricLP {
		fabricLP[f] = f % lps
	}
	n.Partition = partitionStats(g, blockLP, fabricLP, lps, int(l.fabricBase)/l.blocks)
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

	// Channel quiescence: with the workload declared up front, the set of LP
	// pairs any packet can ever cross is computable exactly — the workload is
	// fully pre-scheduled, ECMP pins each flow direction to one fabric switch,
	// and every packet of a flow (handshake, data, ACKs, retransmissions)
	// travels one of the flow's two pinned paths. Channels outside that set
	// are promised-idle: no null messages, and receivers never wait on them. A
	// packet on a quiescent channel still flows correctly but trips the
	// QuiescentSends counter — the loud invariant breach detector for this
	// analysis. The set is computed whatever the schedule; SetFaults applies
	// it only while the schedule is empty.
	if len(declared) > 0 && lps > 1 {
		n.active = make([]bool, lps*lps)
		mark := func(a, b int) {
			if a != b {
				n.active[a*lps+b] = true
			}
		}
		healthy := []des.Time{0}
		for _, sp := range declared {
			src, dst := n.lpOf[sp.Src], n.lpOf[sp.Dst]
			// Data: src → forward pin → dst; ACKs: dst → reverse pin → src.
			for _, f := range l.fabricPins(nil, healthy, sp.Src, sp.Dst, sp.ID) {
				mark(src, fabricLP[f])
				mark(fabricLP[f], dst)
			}
			for _, f := range l.fabricPins(nil, healthy, sp.Dst, sp.Src, sp.ID) {
				mark(dst, fabricLP[f])
				mark(fabricLP[f], src)
			}
		}
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
// Build proved applies, otherwise every channel is active, since failure
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
// and collective ranks under "collective".
func (n *Network) RegisterMetrics(reg *metrics.Registry) {
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
