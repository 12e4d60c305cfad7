// Package traffic generates the data-center workloads the evaluation runs:
// Poisson flow arrivals with empirically distributed flow sizes and
// configurable source/destination locality.
//
// The paper draws traffic from a proprietary production web trace
// (Alizadeh et al., DCTCP). That trace is not public, so this package ships
// the published flow-size distributions fitted from the same environments —
// the standard substitution in data-center networking papers: a heavy-tailed
// mix where most flows are small queries but most bytes belong to a few
// large flows.
package traffic

import (
	"fmt"
	"sort"

	"approxsim/internal/des"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/tcp"
)

// WebSearchCDF is the flow-size distribution published with DCTCP
// (web search workload): mostly sub-100KB query/response traffic with a
// heavy tail of multi-MB background flows.
func WebSearchCDF() *rng.EmpiricalCDF {
	return rng.NewEmpiricalCDF(
		[]float64{6e3, 13e3, 19e3, 33e3, 53e3, 133e3, 667e3, 1467e3, 3333e3, 6667e3, 20e6},
		[]float64{0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 1.0},
	)
}

// DataMiningCDF is the companion distribution from the VL2/data-mining
// environment: even heavier-tailed, with many tiny flows and rare flows in
// the hundreds of megabytes. The extreme tail is clipped at 100 MB to keep
// bounded simulations meaningful.
func DataMiningCDF() *rng.EmpiricalCDF {
	return rng.NewEmpiricalCDF(
		[]float64{100, 1e3, 2e3, 5e3, 10e3, 100e3, 1e6, 10e6, 100e6},
		[]float64{0.1, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.96, 1.0},
	)
}

// Pattern selects how sources and destinations pair up.
type Pattern int

// Supported traffic patterns.
const (
	// Uniform picks src and dst uniformly among all hosts (src != dst).
	Uniform Pattern = iota
	// InterCluster picks src and dst from different clusters — the traffic
	// that crosses the core and exercises the approximated fabrics.
	InterCluster
	// IntraCluster picks src and dst within the same cluster.
	IntraCluster
	// Incast aims many senders at few receivers (the §2.1 pathology).
	Incast
	// Permutation fixes a random one-to-one mapping: host i always sends to
	// perm(i). The classic worst case for ECMP load balancing (no
	// statistical multiplexing across destinations).
	Permutation
)

// String names the pattern for reports.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case InterCluster:
		return "intercluster"
	case IntraCluster:
		return "intracluster"
	case Incast:
		return "incast"
	case Permutation:
		return "permutation"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// Config describes a workload.
type Config struct {
	// Pattern selects endpoint pairing.
	Pattern Pattern
	// Load is the target utilization of aggregate host NIC capacity in
	// (0, 1]; arrival rate is calibrated from it and the mean flow size.
	Load float64
	// SizeCDF samples flow sizes in bytes (default WebSearchCDF).
	SizeCDF *rng.EmpiricalCDF
	// Seed roots all of the workload's randomness.
	Seed uint64
	// HostBandwidthBps is each host NIC's rate, for load calibration.
	HostBandwidthBps int64
	// ClusterSize is hosts per cluster (needed by the locality patterns).
	ClusterSize int
	// IncastFanIn is senders per receiver for the Incast pattern.
	IncastFanIn int
	// FirstFlowID numbers flows from this value (default 1); distinct
	// generators sharing a network must use disjoint ranges.
	FirstFlowID uint64
	// MustTouch, when non-empty, restricts flows to those with at least one
	// endpoint in the set. The hybrid simulation uses this to elide traffic
	// wholly between approximated clusters, which "is not needed because it
	// does not directly affect the measurements of the fully simulated
	// cluster" (paper §6.2).
	MustTouch []packet.HostID
}

func (c Config) withDefaults() Config {
	if c.SizeCDF == nil {
		c.SizeCDF = WebSearchCDF()
	}
	if c.IncastFanIn == 0 {
		c.IncastFanIn = 8
	}
	if c.FirstFlowID == 0 {
		c.FirstFlowID = 1
	}
	return c
}

// Validate reports the first problem with the config, or nil.
func (c Config) Validate() error {
	switch {
	case c.Load <= 0 || c.Load > 1:
		return fmt.Errorf("traffic: Load = %v, need (0, 1]", c.Load)
	case c.HostBandwidthBps <= 0:
		return fmt.Errorf("traffic: HostBandwidthBps must be positive")
	case (c.Pattern == InterCluster || c.Pattern == IntraCluster) && c.ClusterSize <= 0:
		return fmt.Errorf("traffic: locality patterns need ClusterSize")
	}
	return nil
}

// generator draws arrivals, endpoints and sizes from one seeded stream.
type generator struct {
	cfg        Config
	src        *rng.Source
	nextFlowID uint64
	touch      map[packet.HostID]bool

	// eligible are the hosts that may source or sink traffic.
	eligible []packet.HostID
	// perm is the fixed destination mapping for the Permutation pattern,
	// built lazily from the first pick.
	perm []int
}

// arrivalRate returns the calibrated network-wide flow arrival rate in
// flows per second: load × aggregate host bandwidth / mean flow size.
func (g *generator) arrivalRate() float64 {
	meanBits := g.cfg.SizeCDF.Mean() * 8
	aggBps := float64(g.cfg.HostBandwidthBps) * float64(len(g.eligible))
	return g.cfg.Load * aggBps / meanBits
}

func (g *generator) pickPair() (src, dst packet.HostID) {
	n := len(g.eligible)
	cs := g.cfg.ClusterSize
	switch g.cfg.Pattern {
	case InterCluster:
		for {
			src = g.eligible[g.src.Intn(n)]
			dst = g.eligible[g.src.Intn(n)]
			if int(src)/cs != int(dst)/cs {
				return src, dst
			}
		}
	case IntraCluster:
		for {
			src = g.eligible[g.src.Intn(n)]
			dst = g.eligible[g.src.Intn(n)]
			if src != dst && int(src)/cs == int(dst)/cs {
				return src, dst
			}
		}
	case Incast:
		// Receivers are the first hosts; senders fan in from the rest.
		nRecv := n / (g.cfg.IncastFanIn + 1)
		if nRecv < 1 {
			nRecv = 1
		}
		dst = g.eligible[g.src.Intn(nRecv)]
		for {
			src = g.eligible[nRecv+g.src.Intn(n-nRecv)]
			if src != dst {
				return src, dst
			}
		}
	case Permutation:
		if g.perm == nil {
			// A fixed-point-free permutation (derangement by retry).
			for {
				g.perm = g.src.Perm(n)
				ok := true
				for i, v := range g.perm {
					if i == v {
						ok = false
						break
					}
				}
				if ok {
					break
				}
			}
		}
		i := g.src.Intn(n)
		return g.eligible[i], g.eligible[g.perm[i]]
	default: // Uniform
		for {
			src = g.eligible[g.src.Intn(n)]
			dst = g.eligible[g.src.Intn(n)]
			if src != dst {
				return src, dst
			}
		}
	}
}

// Summary aggregates results for reports.
type Summary struct {
	Flows       int
	Completed   int
	MeanFCT     float64 // seconds
	P99FCT      float64 // seconds
	TotalBytes  int64
	Retrans     uint64
	Timeouts    uint64
	GoodputBps  float64 // delivered payload bits/sec over makespan
	MakespanSec float64
}

// Summarize reduces a result set over the given observation span.
func Summarize(results []tcp.FlowResult, span des.Time) Summary {
	s := Summary{Flows: len(results), MakespanSec: span.Seconds()}
	var fcts []float64
	for _, r := range results {
		if !r.Completed {
			continue
		}
		s.Completed++
		s.TotalBytes += r.Size
		s.Retrans += r.Retrans
		s.Timeouts += r.Timeouts
		fcts = append(fcts, r.FCT().Seconds())
	}
	if len(fcts) > 0 {
		var sum float64
		for _, f := range fcts {
			sum += f
		}
		s.MeanFCT = sum / float64(len(fcts))
		// P99 via nearest-rank on a copied sort.
		s.P99FCT = quantile(fcts, 0.99)
	}
	if s.MakespanSec > 0 {
		s.GoodputBps = float64(s.TotalBytes) * 8 / s.MakespanSec
	}
	return s
}

func quantile(xs []float64, q float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	idx := int(q * float64(len(ys)-1))
	return ys[idx]
}

// FlowSpec is one pre-generated flow arrival. Every packet-level engine runs
// static schedules: arrivals are scheduled on the source host's logical
// process at build time, and the same schedule declares the workload to the
// rack placement and the channel-quiescence analysis.
type FlowSpec struct {
	At       des.Time
	Src, Dst packet.HostID
	Size     int64
	ID       uint64
}

// GenerateSpecs pre-computes the workload Config describes over the given
// hosts as a static arrival schedule up to the horizon. The same (cfg,
// hosts, until) always yields the same schedule.
func GenerateSpecs(cfg Config, hosts []packet.HostID, until des.Time) ([]FlowSpec, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(hosts) < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 hosts")
	}
	g := &generator{
		cfg:        cfg,
		src:        rng.NewLabeled(cfg.Seed, "traffic"),
		nextFlowID: cfg.FirstFlowID,
		eligible:   append([]packet.HostID(nil), hosts...),
	}
	if len(cfg.MustTouch) > 0 {
		g.touch = make(map[packet.HostID]bool, len(cfg.MustTouch))
		for _, h := range cfg.MustTouch {
			g.touch[h] = true
		}
	}
	rate := g.arrivalRate()
	var specs []FlowSpec
	t := des.Time(0)
	for {
		gap := des.FromSeconds(g.src.Exp(rate))
		if gap < 1 {
			gap = 1
		}
		t += gap
		if t > until {
			return specs, nil
		}
		src, dst := g.pickPair()
		size := int64(g.cfg.SizeCDF.Sample(g.src))
		if size < 1 {
			size = 1
		}
		// Thin MustTouch misses AFTER the pair and size draws and WITHOUT
		// consuming a flow ID: the surviving flows keep the arrival times,
		// endpoints and sizes they have in the unthinned schedule (and the
		// arrival rate of the full run), numbered densely.
		if g.touch != nil && !g.touch[src] && !g.touch[dst] {
			continue
		}
		specs = append(specs, FlowSpec{At: t, Src: src, Dst: dst, Size: size, ID: g.nextFlowID})
		g.nextFlowID++
	}
}
