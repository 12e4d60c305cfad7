// Package trace instruments a full-fidelity simulation to capture the
// training data the approximation pipeline needs (paper §3: "We first
// briefly simulate a small network in full packet-level fidelity to generate
// training and testing sets").
//
// The unit of observation is a traversal of the region on one side of a
// topology.Boundary (see AttachBoundary): Egress traversals leave the
// boundary's cluster, Ingress traversals enter it. On the cluster side:
//
//   - Egress: a packet enters at a ToR from a server (destination outside
//     the cluster) and leaves when it reaches a Core switch.
//   - Ingress: a packet enters at a Cluster (agg) switch from a Core and
//     leaves when it is delivered to a server in the cluster.
//
// Each traversal yields one Record: the entry time, the packet's identity
// features, and the outcome — the fabric latency, or the fact that the
// fabric dropped it. These are exactly the labels the micro models are
// trained to predict, and the latency/drop series the macro-state
// classifier is fitted on.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"approxsim/internal/des"
	"approxsim/internal/netsim"
	"approxsim/internal/packet"
	"approxsim/internal/stats"
	"approxsim/internal/tcp"
	"approxsim/internal/topology"
)

// Direction distinguishes the two fabric traversal kinds; the paper trains
// one model per direction ("one model for packets entering the approximated
// cluster and one for packets leaving", §4.2).
type Direction int8

// Traversal directions.
const (
	// Egress leaves the boundary's cluster (server -> fabric -> core on
	// the cluster side).
	Egress Direction = iota
	// Ingress enters the boundary's cluster (core -> fabric -> server on
	// the cluster side).
	Ingress
)

// String names the direction.
func (d Direction) String() string {
	if d == Egress {
		return "egress"
	}
	return "ingress"
}

// Record is one observed fabric traversal.
type Record struct {
	Entry   des.Time // when the packet entered the fabric
	Latency des.Time // fabric transit time; meaningful when !Dropped
	Dropped bool
	Dir     Direction
	Src     packet.HostID
	Dst     packet.HostID
	Flow    uint64
	Size    int32
	IsAck   bool
}

// BoundaryRecorder captures traversals of the replaced side of one
// topology.Boundary. Attach hooks with AttachBoundary; stop observing with
// Detach. Records appear in entry order.
type BoundaryRecorder struct {
	topo    *topology.Topology
	cluster int

	inflight map[*packet.Packet]int // packet -> index into Records
	detach   []func()

	// Records holds every completed or dropped traversal, in entry order.
	Records []Record
	// Orphans counts traversals that never completed (e.g. still inside
	// the region when the run ended).
	orphans int
}

// AttachBoundary instruments boundary b of topo and returns the recorder.
// A traversal crosses the region b replaces, between its two edges: the
// cut (the links between b's cluster's aggregation switches and the cores)
// and the hosts whose links end in the region.
//
//   - Cluster side: Egress enters when one of the cluster's ToRs receives
//     from a host and exits at a core; Ingress enters at one of the
//     cluster's aggs from a core and exits at delivery to a cluster host.
//   - Whole-network side (the §7 single black box, "in the limit, the rest
//     of the network could be modeled as a single black box"): Egress
//     enters when a core receives from the cluster and exits at delivery to
//     a host of any other cluster, covering core transit plus the remote
//     fabric; Ingress enters when a remote ToR receives from its host and
//     exits when one of the cluster's aggs receives it from a core.
//
// Drops at any port of a region switch resolve the traversal as dropped.
// Hooks chain: an already-installed OnReceive/OnDrop callback keeps firing.
func AttachBoundary(topo *topology.Topology, b topology.Boundary) *BoundaryRecorder {
	r := &BoundaryRecorder{
		topo:     topo,
		cluster:  b.Cluster,
		inflight: make(map[*packet.Packet]int),
	}
	cfg := topo.Cfg
	// hostIn is the direction of a traversal entering at the host edge.
	hostIn := Egress
	if b.WholeNet {
		hostIn = Ingress
	}
	var region []*netsim.Switch
	if b.WholeNet {
		region = append(region, topo.Cores...)
	}

	// Host edge: the region's ToRs open traversals from their hosts toward
	// the other side of the cut; delivery to the region's hosts closes them.
	for c := 0; c < cfg.Clusters; c++ {
		if !b.Inside(c) {
			continue
		}
		for _, tor := range topo.ToRsInCluster(c) {
			r.chainSwitch(tor, func(p *packet.Packet, inPort int) {
				if inPort < cfg.ServersPerToR && r.inside(p.Dst) == b.WholeNet {
					r.open(p, hostIn)
				}
			})
		}
		region = append(region, topo.ToRsInCluster(c)...)
		region = append(region, topo.AggsInCluster(c)...)
		for _, h := range topo.HostsInCluster(c) {
			h := h
			old := h.OnReceive
			h.OnReceive = func(p *packet.Packet) {
				if old != nil {
					old(p)
				}
				r.close(p)
			}
			r.detach = append(r.detach, func() { h.OnReceive = old })
		}
	}

	// The cut, seen from its receiving ends: an agg of the cluster receiving
	// from a core (inward), a core receiving from the cluster (outward).
	for _, agg := range topo.AggsInCluster(b.Cluster) {
		r.chainSwitch(agg, func(p *packet.Packet, inPort int) {
			switch {
			case inPort < cfg.ToRsPerCluster:
			case b.WholeNet:
				r.close(p)
			case r.inside(p.Dst):
				r.open(p, Ingress)
			}
		})
	}
	for _, core := range topo.Cores {
		r.chainSwitch(core, func(p *packet.Packet, inPort int) {
			switch {
			case !b.WholeNet:
				r.close(p)
			case inPort == b.Cluster && !r.inside(p.Dst):
				r.open(p, Egress)
			}
		})
	}

	for _, sw := range region {
		for i := 0; i < sw.NumPorts(); i++ {
			r.chainDrop(sw.Port(i))
		}
	}
	return r
}

// inside reports whether h is a host of the boundary's cluster.
func (r *BoundaryRecorder) inside(h packet.HostID) bool {
	return int(h) >= 0 && int(h) < len(r.topo.Hosts) && r.topo.ClusterOf(h) == r.cluster
}

func (r *BoundaryRecorder) chainSwitch(sw *netsim.Switch, fn func(*packet.Packet, int)) {
	old := sw.OnReceive
	sw.OnReceive = func(p *packet.Packet, inPort int) {
		if old != nil {
			old(p, inPort)
		}
		fn(p, inPort)
	}
	r.detach = append(r.detach, func() { sw.OnReceive = old })
}

func (r *BoundaryRecorder) chainDrop(port *netsim.Port) {
	old := port.OnDrop
	port.OnDrop = func(p *packet.Packet) {
		if old != nil {
			old(p)
		}
		r.drop(p)
	}
	r.detach = append(r.detach, func() { port.OnDrop = old })
}

func (r *BoundaryRecorder) open(p *packet.Packet, dir Direction) {
	if _, dup := r.inflight[p]; dup {
		return // already tracked (cannot happen on loop-free routes)
	}
	r.Records = append(r.Records, Record{
		Entry: r.topo.Kernel.Now(),
		Dir:   dir,
		Src:   p.Src, Dst: p.Dst,
		Flow:  p.FlowID,
		Size:  p.Size(),
		IsAck: p.IsAck(),
	})
	r.inflight[p] = len(r.Records) - 1
}

func (r *BoundaryRecorder) close(p *packet.Packet) {
	idx, ok := r.inflight[p]
	if !ok {
		return
	}
	delete(r.inflight, p)
	r.Records[idx].Latency = r.topo.Kernel.Now() - r.Records[idx].Entry
}

func (r *BoundaryRecorder) drop(p *packet.Packet) {
	idx, ok := r.inflight[p]
	if !ok {
		return
	}
	delete(r.inflight, p)
	r.Records[idx].Dropped = true
}

// Detach removes every hook the recorder installed (LIFO, restoring any
// previously chained callbacks) and abandons in-flight traversals.
func (r *BoundaryRecorder) Detach() {
	for i := len(r.detach) - 1; i >= 0; i-- {
		r.detach[i]()
	}
	r.detach = nil
	r.orphans += len(r.inflight)
	r.inflight = make(map[*packet.Packet]int)
}

// Orphans reports traversals that never resolved (still in the fabric when
// the recorder detached). A handful at the end of a run is normal.
func (r *BoundaryRecorder) Orphans() int { return r.orphans + len(r.inflight) }

// Split partitions the records by direction, preserving order.
func Split(records []Record) (egress, ingress []Record) {
	for _, rec := range records {
		if rec.Dir == Egress {
			egress = append(egress, rec)
		} else {
			ingress = append(ingress, rec)
		}
	}
	return egress, ingress
}

// RTTRecorder collects the RTT samples hosts observe — the Fig. 4 metric
// ("CDFs of observed RTTs by hosts").
type RTTRecorder struct {
	// Sample holds every observed RTT in seconds.
	Sample *stats.Sample
}

// AttachRTT hooks the given hosts' TCP stacks (indexed by HostID; nil
// entries skipped) and records every sender RTT sample.
func AttachRTT(stacks []*tcp.Stack, hosts []packet.HostID) *RTTRecorder {
	r := &RTTRecorder{Sample: stats.NewSample(1024)}
	for _, h := range hosts {
		s := stacks[h]
		if s == nil {
			continue
		}
		old := s.OnRTTSample
		s.OnRTTSample = func(flow uint64, rtt des.Time) {
			if old != nil {
				old(flow, rtt)
			}
			r.Sample.Add(rtt.Seconds())
		}
	}
	return r
}

// --- CSV serialization (the trainmodel CLI's on-disk format) ---

var csvHeader = []string{"entry_ns", "latency_ns", "dropped", "dir", "src", "dst", "flow", "size", "is_ack"}

// WriteCSV writes records with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	row := make([]string, len(csvHeader))
	for _, r := range records {
		row[0] = strconv.FormatInt(int64(r.Entry), 10)
		row[1] = strconv.FormatInt(int64(r.Latency), 10)
		row[2] = strconv.FormatBool(r.Dropped)
		row[3] = r.Dir.String()
		row[4] = strconv.Itoa(int(r.Src))
		row[5] = strconv.Itoa(int(r.Dst))
		row[6] = strconv.FormatUint(r.Flow, 10)
		row[7] = strconv.Itoa(int(r.Size))
		row[8] = strconv.FormatBool(r.IsAck)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: writing record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(rd io.Reader) ([]Record, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	var out []Record
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", i+2, len(row), len(csvHeader))
		}
		var r Record
		entry, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d entry: %w", i+2, err)
		}
		lat, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d latency: %w", i+2, err)
		}
		r.Entry, r.Latency = des.Time(entry), des.Time(lat)
		if r.Dropped, err = strconv.ParseBool(row[2]); err != nil {
			return nil, fmt.Errorf("trace: row %d dropped: %w", i+2, err)
		}
		switch row[3] {
		case "egress":
			r.Dir = Egress
		case "ingress":
			r.Dir = Ingress
		default:
			return nil, fmt.Errorf("trace: row %d bad direction %q", i+2, row[3])
		}
		src, err := strconv.Atoi(row[4])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d src: %w", i+2, err)
		}
		dst, err := strconv.Atoi(row[5])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d dst: %w", i+2, err)
		}
		r.Src, r.Dst = packet.HostID(src), packet.HostID(dst)
		if r.Flow, err = strconv.ParseUint(row[6], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: row %d flow: %w", i+2, err)
		}
		size, err := strconv.Atoi(row[7])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d size: %w", i+2, err)
		}
		r.Size = int32(size)
		if r.IsAck, err = strconv.ParseBool(row[8]); err != nil {
			return nil, fmt.Errorf("trace: row %d is_ack: %w", i+2, err)
		}
		out = append(out, r)
	}
	return out, nil
}
