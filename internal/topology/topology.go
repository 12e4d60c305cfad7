// Package topology builds the data-center networks the paper simulates:
// 3-layer Clos fabrics (servers → ToR → Cluster → Core switches, Fig. 2) and
// 2-layer leaf-spine fabrics (the Fig. 1 scaling experiment), and implements
// deterministic up/down routing with per-flow ECMP across equal-cost uplinks.
//
// The builder assigns dense identifiers: hosts get HostIDs (and equal
// NodeIDs) 0..H-1, then ToRs, then Cluster/spine switches, then Cores. All
// routing is arithmetic on these indices — there are no routing tables to
// build or keep consistent — and the same arithmetic exposes PathFor, the
// deterministic path enumeration the approximation features require
// ("the ToR, Cluster, and Core switches that the packet would pass through",
// paper §4.2).
package topology

import (
	"fmt"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
)

// Kind selects the fabric family.
type Kind int

// Supported topology kinds.
const (
	// ThreeTierClos is the paper's Fig. 2 structure: clusters of ToR and
	// Cluster (aggregation) switches joined by Core switches.
	ThreeTierClos Kind = iota
	// LeafSpine is the 2-layer fabric of the Fig. 1 experiment: every ToR
	// connects to every spine.
	LeafSpine
)

// Config sizes a topology. The zero value is not valid; start from
// DefaultClosConfig or DefaultLeafSpineConfig.
type Config struct {
	Kind Kind

	// Clusters is the number of clusters (ThreeTierClos only).
	Clusters int
	// ToRsPerCluster is ToR switches per cluster; for LeafSpine it is the
	// total ToR count and Clusters must be 1.
	ToRsPerCluster int
	// AggsPerCluster is Cluster switches per cluster; for LeafSpine it is
	// the spine count.
	AggsPerCluster int
	// ServersPerToR is hosts attached to each ToR.
	ServersPerToR int
	// CoresPerAgg is Core switches per aggregation position
	// (ThreeTierClos only). Total cores = AggsPerCluster * CoresPerAgg.
	CoresPerAgg int

	// HostLink configures server↔ToR links, FabricLink the ToR↔Agg links,
	// and CoreLink the Agg↔Core links (spine links for LeafSpine reuse
	// FabricLink).
	HostLink   netsim.LinkConfig
	FabricLink netsim.LinkConfig
	CoreLink   netsim.LinkConfig

	// ECMPSeed salts the per-switch flow hash so different runs can explore
	// different path assignments deterministically.
	ECMPSeed uint64
}

// Default link parameters: 10 GbE everywhere, small intra-DC propagation
// delays, queues of 16 full frames per port — deliberately shallow so
// realistic loads exercise queueing and loss, as in the paper's traces.
func defaultLink() netsim.LinkConfig {
	return netsim.LinkConfig{
		BandwidthBps: 10e9,
		PropDelay:    1 * des.Microsecond,
		QueueBytes:   16 * packet.MaxFrameSize,
	}
}

// DefaultClosConfig returns the paper's evaluation cluster shape: clusters of
// 4 switches (2 ToR + 2 Agg) and 8 servers (§6.2), with one core switch per
// aggregation position.
func DefaultClosConfig(clusters int) Config {
	return Config{
		Kind:           ThreeTierClos,
		Clusters:       clusters,
		ToRsPerCluster: 2,
		AggsPerCluster: 2,
		ServersPerToR:  4,
		CoresPerAgg:    1,
		HostLink:       defaultLink(),
		FabricLink:     defaultLink(),
		CoreLink:       defaultLink(),
		ECMPSeed:       1,
	}
}

// DefaultLeafSpineConfig returns the Fig. 1 shape: n ToRs and n spines with
// racks of four servers, 10 GbE links.
func DefaultLeafSpineConfig(n int) Config {
	return Config{
		Kind:           LeafSpine,
		Clusters:       1,
		ToRsPerCluster: n,
		AggsPerCluster: n,
		ServersPerToR:  4,
		HostLink:       defaultLink(),
		FabricLink:     defaultLink(),
		ECMPSeed:       1,
	}
}

// Validate reports the first structural problem in the config, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Clusters < 1:
		return fmt.Errorf("topology: Clusters = %d, need >= 1", c.Clusters)
	case c.ToRsPerCluster < 1:
		return fmt.Errorf("topology: ToRsPerCluster = %d, need >= 1", c.ToRsPerCluster)
	case c.AggsPerCluster < 1:
		return fmt.Errorf("topology: AggsPerCluster = %d, need >= 1", c.AggsPerCluster)
	case c.ServersPerToR < 1:
		return fmt.Errorf("topology: ServersPerToR = %d, need >= 1", c.ServersPerToR)
	case c.Kind == ThreeTierClos && c.CoresPerAgg < 1:
		return fmt.Errorf("topology: CoresPerAgg = %d, need >= 1", c.CoresPerAgg)
	case c.Kind == LeafSpine && c.Clusters != 1:
		return fmt.Errorf("topology: LeafSpine requires Clusters == 1, got %d", c.Clusters)
	case c.HostLink.BandwidthBps <= 0 || c.FabricLink.BandwidthBps <= 0:
		return fmt.Errorf("topology: link bandwidths must be positive")
	case c.Kind == ThreeTierClos && c.CoreLink.BandwidthBps <= 0:
		return fmt.Errorf("topology: core link bandwidth must be positive")
	}
	return nil
}

// Counts of each device tier implied by the config.
func (c *Config) NumHosts() int { return c.Clusters * c.ToRsPerCluster * c.ServersPerToR }

// NumToRs returns the total ToR switch count.
func (c *Config) NumToRs() int { return c.Clusters * c.ToRsPerCluster }

// NumAggs returns the total Cluster-switch (or spine) count.
func (c *Config) NumAggs() int {
	if c.Kind == LeafSpine {
		return c.AggsPerCluster
	}
	return c.Clusters * c.AggsPerCluster
}

// NumCores returns the Core switch count (zero for leaf-spine).
func (c *Config) NumCores() int {
	if c.Kind == LeafSpine {
		return 0
	}
	return c.AggsPerCluster * c.CoresPerAgg
}

// NumNodes returns the device count: hosts plus every switch tier.
func (c *Config) NumNodes() int { return c.NumHosts() + c.NumToRs() + c.NumAggs() + c.NumCores() }

// Bases returns the first NodeID of the ToR, aggregation (spine) and core
// tiers. Hosts occupy NodeIDs 0..NumHosts()-1, equal to their HostIDs; each
// switch tier follows densely in that order.
func (c *Config) Bases() (tor, agg, core packet.NodeID) {
	tor = packet.NodeID(c.NumHosts())
	agg = tor + packet.NodeID(c.NumToRs())
	core = agg + packet.NodeID(c.NumAggs())
	return tor, agg, core
}

// NodeName returns the device name of id: host<i>, tor<i>, spine<i>
// (leaf-spine) or agg<i>, and core<i>, indexed within the tier. Trace tracks
// carry these names and ParseFaults resolves them back to NodeIDs.
func (c *Config) NodeName(id packet.NodeID) string {
	tor, agg, core := c.Bases()
	switch {
	case id >= core:
		return fmt.Sprintf("core%d", id-core)
	case id >= agg && c.Kind == LeafSpine:
		return fmt.Sprintf("spine%d", id-agg)
	case id >= agg:
		return fmt.Sprintf("agg%d", id-agg)
	case id >= tor:
		return fmt.Sprintf("tor%d", id-tor)
	default:
		return fmt.Sprintf("host%d", id)
	}
}

// NICLink returns the host end of a server link. The host's egress queue
// models the NIC transmit queue (a Linux qdisc of a few hundred frames): much
// deeper than a switch port — a sender rarely drops its own packets — but
// bounded, so sender-side bufferbloat cannot grow without limit. The ToR end
// keeps HostLink, so incast loss at the rack edge is preserved.
func (c *Config) NICLink() netsim.LinkConfig {
	nic := c.HostLink
	if min := int64(200 * packet.MaxFrameSize); nic.QueueBytes < min {
		nic.QueueBytes = min
	}
	nic.ECNThresholdBytes = 0
	return nic
}

// Link is one duplex link of a topology's wiring plan.
type Link struct {
	// A is the lower-tier endpoint (host, ToR or aggregation switch), B the
	// upper-tier one (ToR, spine, aggregation switch or core).
	A, B packet.NodeID
	// Cfg configures both ports, except that a host end uses NICLink.
	Cfg netsim.LinkConfig
	// Fabric marks links into the top tier (ToR–spine on a leaf-spine,
	// agg–core on a Clos): the only links a PDES partition may cut.
	Fabric bool
}

// Links returns the wiring plan in the order builders create ports. Each link
// appends one port to each endpoint, and the order makes the resulting port
// indices the layout the Route arithmetic assumes:
//
//	ToR:  ports [0, ServersPerToR) face hosts (by in-rack position);
//	      ports [ServersPerToR, ServersPerToR+uplinks) face aggs/spines.
//	Agg:  ports [0, ToRsPerCluster) face ToRs (leaf index for LeafSpine);
//	      ports [ToRsPerCluster, +CoresPerAgg) face its core group.
//	Core: port c faces cluster c's agg at this core's aggregation position.
func (c *Config) Links() []Link {
	tor, agg, core := c.Bases()
	links := make([]Link, 0, c.NumHosts()+c.NumToRs()*c.AggsPerCluster+c.NumAggs()*c.CoresPerAgg)
	for h := 0; h < c.NumHosts(); h++ {
		links = append(links, Link{A: packet.NodeID(h), B: tor + packet.NodeID(h/c.ServersPerToR), Cfg: c.HostLink})
	}
	if c.Kind == LeafSpine {
		for t := 0; t < c.NumToRs(); t++ {
			for s := 0; s < c.NumAggs(); s++ {
				links = append(links, Link{A: tor + packet.NodeID(t), B: agg + packet.NodeID(s),
					Cfg: c.FabricLink, Fabric: true})
			}
		}
		return links
	}
	for cl := 0; cl < c.Clusters; cl++ {
		for a := 0; a < c.AggsPerCluster; a++ {
			for t := 0; t < c.ToRsPerCluster; t++ {
				links = append(links, Link{A: tor + packet.NodeID(cl*c.ToRsPerCluster+t),
					B: agg + packet.NodeID(cl*c.AggsPerCluster+a), Cfg: c.FabricLink})
			}
		}
	}
	for cl := 0; cl < c.Clusters; cl++ {
		for a := 0; a < c.AggsPerCluster; a++ {
			for j := 0; j < c.CoresPerAgg; j++ {
				links = append(links, Link{A: agg + packet.NodeID(cl*c.AggsPerCluster+a),
					B: core + packet.NodeID(a*c.CoresPerAgg+j), Cfg: c.CoreLink, Fabric: true})
			}
		}
	}
	return links
}

// Topology is a fully wired network: devices plus the index arithmetic that
// routes packets over them.
type Topology struct {
	Cfg    Config
	Kernel *des.Kernel

	Hosts []*netsim.Host
	ToRs  []*netsim.Switch
	Aggs  []*netsim.Switch // Cluster switches (spines for LeafSpine)
	Cores []*netsim.Switch

	torBase, aggBase, coreBase packet.NodeID
}

// Assemble indexes already-built devices of a cfg-shaped network on kernel k
// as a Topology: hosts in HostID order, switches in NodeID order (the ToRs,
// the aggregation switches or spines, then the cores). Build uses it for the
// devices it creates; the PDES network builder uses it to expose a one-LP
// network to the packages that act on a Topology (boundary capture, the
// approximation splice, model features).
func Assemble(k *des.Kernel, cfg Config, hosts []*netsim.Host, switches []*netsim.Switch) *Topology {
	t := &Topology{Cfg: cfg, Kernel: k, Hosts: hosts}
	t.torBase, t.aggBase, t.coreBase = cfg.Bases()
	tors, aggs := cfg.NumToRs(), cfg.NumToRs()+cfg.NumAggs()
	t.ToRs, t.Aggs, t.Cores = switches[:tors:tors], switches[tors:aggs:aggs], switches[aggs:]
	return t
}

// Build constructs and wires every device of the configured topology on
// kernel k, routing healthily (see Route). It returns an error rather than
// panicking so CLIs can report bad flags cleanly.
func Build(k *des.Kernel, cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hosts := make([]*netsim.Host, cfg.NumHosts())
	for i := range hosts {
		hosts[i] = netsim.NewHost(k, packet.HostID(i), packet.NodeID(i))
	}
	route := netsim.RouterFunc(func(sw packet.NodeID, p *packet.Packet) (int, bool) {
		return RouteOn(&cfg, nil, 0, sw, p)
	})
	tor, _, _ := cfg.Bases()
	var switches []*netsim.Switch
	for id := tor; int(id) < cfg.NumNodes(); id++ {
		switches = append(switches, netsim.NewSwitch(k, id, route))
	}
	t := Assemble(k, cfg, hosts, switches)

	// Ports follow the wiring plan (see Links for the layout it yields).
	nic := cfg.NICLink()
	for _, l := range cfg.Links() {
		var pa *netsim.Port
		if sw := t.switchByID(l.A); sw != nil {
			pa = sw.AddPort(l.Cfg)
		} else {
			pa = t.Hosts[l.A].AttachNIC(nic)
		}
		netsim.Connect(pa, t.switchByID(l.B).AddPort(l.Cfg))
	}
	return t, nil
}

// --- Identity helpers ---

// ClusterOf returns the cluster index of host h.
func (t *Topology) ClusterOf(h packet.HostID) int {
	return int(h) / (t.Cfg.ToRsPerCluster * t.Cfg.ServersPerToR)
}

// ToROf returns the global ToR index of host h.
func (t *Topology) ToROf(h packet.HostID) int { return int(h) / t.Cfg.ServersPerToR }

// HostsInCluster returns the hosts of cluster c in ID order.
func (t *Topology) HostsInCluster(c int) []*netsim.Host {
	per := t.Cfg.ToRsPerCluster * t.Cfg.ServersPerToR
	return t.Hosts[c*per : (c+1)*per]
}

// ToRsInCluster returns cluster c's ToR switches.
func (t *Topology) ToRsInCluster(c int) []*netsim.Switch {
	return t.ToRs[c*t.Cfg.ToRsPerCluster : (c+1)*t.Cfg.ToRsPerCluster]
}

// AggsInCluster returns cluster c's Cluster switches.
func (t *Topology) AggsInCluster(c int) []*netsim.Switch {
	return t.Aggs[c*t.Cfg.AggsPerCluster : (c+1)*t.Cfg.AggsPerCluster]
}

// nodeTier classifies a NodeID. Values: 0 host, 1 ToR, 2 agg, 3 core.
func (t *Topology) nodeTier(id packet.NodeID) int {
	switch {
	case id < t.torBase:
		return 0
	case id < t.aggBase:
		return 1
	case id < t.coreBase:
		return 2
	default:
		return 3
	}
}

// --- ECMP ---

// ecmpHash mixes the flow identity with a per-switch salt, modeling
// hardware ECMP (each switch hashes the 5-tuple with its own seed so a flow
// takes one deterministic path but different flows spread). Callers outside
// the package reach it only through RouteOn, so partition-graph weighting
// uses the exact arithmetic the routers do.
func ecmpHash(sw packet.NodeID, p *packet.Packet, seed uint64) uint64 {
	x := uint64(sw)*0x9e3779b97f4a7c15 ^ seed
	// Hash the canonical flow direction (src,dst,flow) — not symmetric:
	// forward and reverse directions may take different paths, as in
	// real ECMP.
	x ^= uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst))
	x ^= p.FlowID * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Route returns the healthy route of p at switch sw: pure index arithmetic
// (RouteOn with no fault schedule). Fault-aware routing lives in the PDES
// network builder, which owns fault schedules.
func (t *Topology) Route(sw packet.NodeID, p *packet.Packet) (int, bool) {
	return RouteOn(&t.Cfg, nil, 0, sw, p)
}

// Path is the deterministic switch sequence a flow's packets traverse.
type Path struct {
	// Up-side devices from the source, in traversal order.
	SrcToR packet.NodeID
	SrcAgg packet.NodeID // unset (-1) for same-rack traffic
	Core   packet.NodeID // unset (-1) unless inter-cluster
	DstAgg packet.NodeID // unset (-1) for same-rack traffic
	DstToR packet.NodeID
}

// PathFor enumerates the path packets of flow (src → dst, flowID) take,
// by evaluating the same ECMP arithmetic Route uses. This is how the micro
// model obtains its "switches the packet would pass through" features for
// clusters that no longer physically exist in the hybrid simulation.
//
// PathFor always enumerates the HEALTHY-baseline path, ignoring any installed
// fault schedule: the approximation features and the flow-level fast path
// consume it as a time-independent flow property, which a time-varying
// failure view cannot be.
func (t *Topology) PathFor(src, dst packet.HostID, flowID uint64) Path {
	cfg := &t.Cfg
	probe := &packet.Packet{Src: src, Dst: dst, FlowID: flowID}
	path := Path{SrcAgg: -1, Core: -1, DstAgg: -1}
	srcToR := t.torBase + packet.NodeID(t.ToROf(src))
	dstToR := t.torBase + packet.NodeID(t.ToROf(dst))
	path.SrcToR, path.DstToR = srcToR, dstToR
	if srcToR == dstToR {
		return path
	}
	upPort, _ := RouteOn(cfg, nil, 0, srcToR, probe)
	aggPick := upPort - cfg.ServersPerToR
	if cfg.Kind == LeafSpine {
		path.SrcAgg = t.aggBase + packet.NodeID(aggPick)
		path.DstAgg = path.SrcAgg // one spine hop serves both directions
		return path
	}
	srcCluster := t.ClusterOf(src)
	path.SrcAgg = t.aggBase + packet.NodeID(srcCluster*cfg.AggsPerCluster+aggPick)
	if t.ClusterOf(dst) == srcCluster {
		path.DstAgg = path.SrcAgg
		return path
	}
	corePort, _ := RouteOn(cfg, nil, 0, path.SrcAgg, probe)
	corePick := corePort - cfg.ToRsPerCluster
	path.Core = t.coreBase + packet.NodeID(aggPick*cfg.CoresPerAgg+corePick)
	// Down side: the core connects to exactly one agg in the destination
	// cluster — the one at the core's aggregation position.
	path.DstAgg = t.aggBase + packet.NodeID(t.ClusterOf(dst)*cfg.AggsPerCluster+aggPick)
	return path
}

// Boundary is the cut the approximation pipeline records at and replaces
// behind (paper §3, Fig. 3): the links between cluster Cluster's
// aggregation switches and the cores of a 3-tier Clos. Cut slot k is the
// link to core k (see CutPort).
type Boundary struct {
	// Cluster is the cluster whose aggregation switches sit on the cut.
	Cluster int
	// WholeNet selects the side the models replace. False: the cluster's
	// own fabric, its ToR and Cluster switches (the paper's per-cluster
	// design). True: everything beyond the cut, every core and every other
	// cluster's switches (the §7 single black box).
	WholeNet bool
}

// Inside reports whether cluster c's ToR and Cluster switches lie on the
// replaced side of b; their hosts' links then end in the replaced region.
func (b Boundary) Inside(c int) bool { return (c == b.Cluster) != b.WholeNet }

// CutPort returns cut slot k of cluster c: the aggregation switch and its
// port facing core k.
func (t *Topology) CutPort(c, k int) (*netsim.Switch, int) {
	cfg := &t.Cfg
	return t.AggsInCluster(c)[k/cfg.CoresPerAgg], cfg.ToRsPerCluster + k%cfg.CoresPerAgg
}

// CoreIndex converts a core switch NodeID to its index in Cores.
func (t *Topology) CoreIndex(id packet.NodeID) int { return int(id - t.coreBase) }

// ToRIndex converts a ToR NodeID to its index in ToRs.
func (t *Topology) ToRIndex(id packet.NodeID) int { return int(id - t.torBase) }

// AggIndex converts an agg/spine NodeID to its index in Aggs.
func (t *Topology) AggIndex(id packet.NodeID) int { return int(id - t.aggBase) }
