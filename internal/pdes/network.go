package pdes

import (
	"fmt"
	"sync/atomic"
	"time"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/faults"
	"approxsim/internal/metrics"
	"approxsim/internal/netsim"
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
// LP-local. The fabric tier (spines or cores) is placed by the configured
// Partitioner (default: the historical round-robin scatter, the placement
// that makes data centers maximally hostile to PDES), and only links into it
// can cross an LP boundary.
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

	specs  []traffic.FlowSpec // the scheduled open-loop workload
	lpOf   []int              // owning LP by NodeID
	faults *faults.Schedule
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
			port, ok := topology.RouteOn(l.cfg, sched, now, node, &probe)
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
// normalized bandwidth instead, so placements still order sensibly (and
// nothing can be declared idle).
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
		g.ChannelCost = bw
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
	// run will truncate, inflating cut weight relative to channel cost.
	bytesPerNs := float64(l.cfg.HostLink.BandwidthBps) / 8e9
	// With a fault schedule, a flow's pin can change at each detection or
	// recovery edge; weight every fabric switch in the UNION of pre- and
	// post-failure routes at full cost, so whichever epoch the run spends
	// longest in, the placement already accounted for that traffic.
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
		// it sets how much fabric the imbalance bound lets one LP absorb.
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
	// One active channel costs up to one promise per lookahead of virtual
	// time; this prices removing a channel in the same units (packet events)
	// as the cut weight.
	la := l.fabricLink.PropDelay
	if la < 1 {
		la = 1
	}
	g.ChannelCost = float64(maxAt / la)
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
// channels idle (System.LimitChannels). Declaring and scheduling in one call
// keeps the two identical — the soundness condition of both analyses.
func Build(cfg topology.Config, lps int, specs []traffic.FlowSpec, opts ...Option) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := newLayout(cfg)
	if lps < 1 || lps > l.blocks {
		return nil, fmt.Errorf("pdes: lps = %d, need 1..%d (one %s per LP minimum)", lps, l.blocks, l.unit)
	}
	n := &Network{Sys: NewSystem(lps, opts...), Cfg: cfg, specs: specs}
	sched := n.Sys.cfg.faults
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	n.faults = sched
	dyn := n.Sys.cfg.dynFaults

	// Placement. Blocks are pinned contiguously (identical across
	// partitioners — see partition.go); only the fabric moves. Collective
	// instances are resolved first so the declared workload — open-loop
	// schedule plus the full closed-loop flow catalog — weights the partition
	// graph and feeds channel quiescence with exactly the flows that will run.
	part := n.Sys.cfg.partitioner
	if part == nil {
		part = ContiguousPartitioner{}
	}
	insts, declared, err := buildCollectives(n.Sys.cfg.collectives, specs, cfg.NumHosts(), cfg.HostLink.BandwidthBps)
	if err != nil {
		return nil, err
	}
	n.Collectives = insts
	g := l.graph(declared, sched)
	blockLP := make([]int, l.blocks)
	for b := range blockLP {
		blockLP[b] = b * lps / l.blocks
	}
	fabricLP := part.Partition(g, blockLP, lps)
	if len(fabricLP) != g.Fabric() {
		return nil, fmt.Errorf("pdes: partitioner %q returned %d placements for %d fabric switches",
			part.Name(), len(fabricLP), g.Fabric())
	}
	for f, lp := range fabricLP {
		if lp < 0 || lp >= lps {
			return nil, fmt.Errorf("pdes: partitioner %q placed fabric switch %d on LP %d (have %d LPs)",
				part.Name(), f, lp, lps)
		}
	}
	n.Partition = partitionStats(part.Name(), g, blockLP, fabricLP, lps, int(l.fabricBase)/l.blocks)
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
		stack := tcp.NewStack(host, tcp.Config{})
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
		// A fixed schedule gives Down closures only to links it can ever take
		// out (untouched ports keep a nil Down and pay nothing); a swappable
		// one gives every link a closure over the current schedule.
		if dyn {
			down := n.dynLinkDown(ln.A, ln.B)
			pa.Down, pb.Down = down, down
		} else if sched.TouchesLink(ln.A, ln.B) {
			down := func(at des.Time) bool { return sched.PathDown(ln.A, ln.B, at) }
			pa.Down, pb.Down = down, down
		}
	}
	if dyn {
		// Every switch reads the CURRENT schedule; untouched elements pay one
		// Empty() check per event. Fault trace instants are skipped — they are
		// kernel events, and baking them into a checkpoint would pin one
		// variant's schedule into every fork (see WithDynamicFaults).
		for _, sw := range n.Switches {
			sw.Down = n.dynSwitchDown(sw.NodeID())
		}
	} else if !sched.Empty() {
		for i := range sched.Faults {
			f := &sched.Faults[i]
			if sw := n.switchByID(f.A); sw != nil && f.Kind == faults.SwitchFault {
				id := f.A
				sw.Down = func(at des.Time) bool { return sched.SwitchDown(id, at) }
			}
		}
		// Fail/detect/recover trace instants, as ordinary events on each
		// involved switch's own LP (see topology.ScheduleFaultInstants).
		for i := 0; i < lps; i++ {
			k := n.Sys.LP(i).Kernel()
			topology.ScheduleFaultInstants(k, sched, func(id packet.NodeID) *netsim.Switch {
				if sw := n.switchByID(id); sw != nil && sw.Kernel() == k {
					return sw
				}
				return nil
			})
		}
	}

	// Channel quiescence: with the workload declared up front, the set of LP
	// pairs any packet can ever cross is computable exactly — the workload is
	// fully pre-scheduled, ECMP pins each flow direction to one fabric switch,
	// and every packet of a flow (handshake, data, ACKs, retransmissions)
	// travels one of the flow's two pinned paths. Channels outside that set
	// are promised-idle: no null messages, and receivers never wait on them. A
	// packet on a quiescent channel still flows correctly but trips the
	// QuiescentSends counter — the loud invariant breach detector for this
	// analysis.
	//
	// Skipped under any fault schedule, fixed or swappable: failure rerouting
	// moves flows onto fabric switches the healthy analysis proved idle
	// (LimitChannels would reject a fixed schedule anyway — see its guard).
	if len(declared) > 0 && lps > 1 && sched.Empty() && !dyn {
		active := make([]bool, lps*lps)
		mark := func(a, b int) {
			if a != b {
				active[a*lps+b] = true
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
		if err := n.Sys.LimitChannels(func(from, to int) bool { return active[from*lps+to] }); err != nil {
			return nil, err
		}
	}

	for _, sp := range specs {
		stack := n.Stacks[sp.Src]
		n.Sys.LP(n.lpOf[sp.Src]).Kernel().At(sp.At, func() {
			stack.StartFlow(sp.Dst, sp.Size, sp.ID, nil)
		})
	}
	return n, nil
}

// dynLinkDown returns a down-state closure that consults the network's
// CURRENT fault schedule (swappable via SetFaults) instead of capturing one.
func (n *Network) dynLinkDown(a, b packet.NodeID) func(des.Time) bool {
	return func(at des.Time) bool {
		s := n.faults
		return !s.Empty() && s.PathDown(a, b, at)
	}
}

// dynSwitchDown is dynLinkDown's receive-side counterpart for whole-switch
// failures.
func (n *Network) dynSwitchDown(id packet.NodeID) func(des.Time) bool {
	return func(at des.Time) bool {
		s := n.faults
		return !s.Empty() && s.SwitchDown(id, at)
	}
}

// SetFaults swaps the network's fault schedule. Only legal between runs (at
// quiescence) on a network built with WithDynamicFaults; the conservative
// engines re-read the schedule through the dynamic down closures and the
// failure-aware router on the next Run. nil clears the schedule (healthy).
func (n *Network) SetFaults(sched *faults.Schedule) error {
	if sched == nil {
		sched = &faults.Schedule{}
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if !sched.Empty() && !n.Sys.cfg.dynFaults {
		return fmt.Errorf("pdes: SetFaults needs a network built with WithDynamicFaults")
	}
	n.faults = sched
	return nil
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
	return topology.RouteOn(n.Cfg, sched, now, sw, p)
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

// Results gathers every flow result across all stacks.
func (n *Network) Results() []tcp.FlowResult {
	var out []tcp.FlowResult
	for _, s := range n.Stacks {
		out = append(out, s.Results()...)
	}
	return out
}

// ExperimentResult is one Fig. 1 data point.
type ExperimentResult struct {
	ToRs, LPs        int
	SimSeconds       float64
	WallSeconds      float64
	SimPerWall       float64 // the Fig. 1 y-axis: sim seconds per wall second
	Events           uint64
	Nulls            uint64
	Barriers         uint64
	CrossPkts        uint64
	Violations       uint64 // causality violations: nonzero means a sync bug
	EITStalls        uint64
	ParkedArrivals   uint64 // conservative: in-flight packets parked at the horizon, resumable
	PostHorizonDrops uint64 // Time Warp: packets lost at the terminal horizon
	Rollbacks        uint64 // Time Warp: state restores
	AntiMessages     uint64 // Time Warp: speculative sends cancelled
	LazyCancelSaved  uint64 // Time Warp: anti-messages avoided by lazy cancellation
	GVTAdvances      uint64 // Time Warp: committed GVT advances
	Checkpoints      uint64 // Time Warp: state snapshots taken
	WindowShrinks    uint64 // Time Warp: adaptive-window contractions
	WindowGrows      uint64 // Time Warp: adaptive-window expansions
	QuiescentSends   uint64 // packets on promised-idle channels: nonzero means the analysis is unsound
	FlowsStarted     int
	FlowsCompleted   int
	// Fault accounting: every packet lost to a dead element (FaultDrops) or
	// to the absence of any surviving route (RouteDrops). Both zero on a
	// healthy run; under a fault schedule their sum is the total blackholed
	// traffic — counted, never silent.
	FaultDrops uint64
	RouteDrops uint64
	// Flow-completion summary over completed flows (seconds). Zero when no
	// flow completed.
	MeanFCTSec float64
	P99FCTSec  float64
	// Transport summary over completed flows (see traffic.Summarize).
	Retrans    uint64
	Timeouts   uint64
	GoodputBps float64
	// Placement summary (see PartitionStats).
	Partition     string
	CutEdges      int
	CutWeight     float64
	Channels      int
	LoadImbalance float64
	// Collective workload summary (see internal/collective). Iteration
	// durations are pure virtual time — part of the deterministic result,
	// bit-identical across engines like the flow metrics above.
	CollectiveIters       int     // whole iterations completed by every rank
	CollectiveIterNS      []int64 // per-iteration collective durations, instance order
	CollectiveMeanIterSec float64
	CollectiveMaxIterSec  float64
}

// AssembleResult reduces a finished run to an ExperimentResult. st carries
// the sync-machinery counters to report: a fresh network passes Sys.Stats()
// directly; a forked run (see System.Restore) passes the delta against the
// post-restore baseline, Sys.Stats().Sub(base), since those counters
// accumulate across runs while device and TCP counters rewind with the
// checkpoint.
func (n *Network) AssembleResult(st Stats, dur des.Time, wall time.Duration) *ExperimentResult {
	res := &ExperimentResult{
		ToRs: n.Cfg.NumToRs(), LPs: n.Sys.NumLPs(),
		SimSeconds:       dur.Seconds(),
		WallSeconds:      wall.Seconds(),
		Events:           st.Events,
		Nulls:            st.Nulls,
		Barriers:         st.Barriers,
		CrossPkts:        st.CrossPkts,
		Violations:       st.Violations,
		EITStalls:        st.EITStalls,
		ParkedArrivals:   st.ParkedArrivals,
		PostHorizonDrops: st.PostHorizonDrops,
		Rollbacks:        st.Rollbacks,
		AntiMessages:     st.AntiMessages,
		LazyCancelSaved:  st.LazyCancelSaved,
		GVTAdvances:      st.GVTAdvances,
		Checkpoints:      st.Checkpoints,
		WindowShrinks:    st.WindowShrinks,
		WindowGrows:      st.WindowGrows,
		QuiescentSends:   st.QuiescentSends,
		FlowsStarted:     len(n.specs),
		Partition:        n.Partition.Name,
		CutEdges:         n.Partition.CutEdges,
		CutWeight:        n.Partition.CutWeight,
		Channels:         n.Partition.Channels,
		LoadImbalance:    n.Partition.LoadImbalance,
	}
	if wall > 0 {
		res.SimPerWall = res.SimSeconds / res.WallSeconds
	}
	sum := traffic.Summarize(n.Results(), dur)
	res.FlowsCompleted = sum.Completed
	res.MeanFCTSec = sum.MeanFCT
	res.P99FCTSec = sum.P99FCT
	res.Retrans = sum.Retrans
	res.Timeouts = sum.Timeouts
	res.GoodputBps = sum.GoodputBps
	res.FaultDrops = n.FaultDrops()
	res.RouteDrops = n.RouteDrops()
	fillCollective(res, n.Collectives)
	return res
}
