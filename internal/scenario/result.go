package scenario

import (
	"time"

	"approxsim/internal/core"
	"approxsim/internal/des"
	"approxsim/internal/pdes"
	"approxsim/internal/traffic"
)

// Metrics is the deterministic block of a result: identical specs produce
// bit-identical Metrics regardless of engine placement, sync algorithm,
// whether the run was cold-started or forked from a warmed baseline, or how
// long it took on the wall clock. The scenario server caches exactly these
// bytes, so nothing timing-dependent may ever live here — wall time, event
// counts (forked runs skip fault trace instants), and sync-protocol counters
// all go in Perf.
type Metrics struct {
	Flows      int     `json:"flows"`
	Completed  int     `json:"completed"`
	MeanFCTSec float64 `json:"mean_fct_sec"`
	P99FCTSec  float64 `json:"p99_fct_sec"`
	TotalBytes int64   `json:"total_bytes"`
	Retrans    uint64  `json:"retransmissions"`
	Timeouts   uint64  `json:"timeouts"`
	GoodputBps float64 `json:"goodput_bps"`
	// RTT quantiles over the observed cluster's hosts (clos modes only).
	RTTSamples int     `json:"rtt_samples,omitempty"`
	RTTP50Sec  float64 `json:"rtt_p50_sec,omitempty"`
	RTTP99Sec  float64 `json:"rtt_p99_sec,omitempty"`
	// Blackholed-traffic accounting (pdes mode under a fault schedule).
	FaultDrops uint64 `json:"fault_drops,omitempty"`
	RouteDrops uint64 `json:"route_drops,omitempty"`
	// Collective-workload progress (pdes mode with workload.collective):
	// completed whole iterations, per-iteration virtual durations, and their
	// mean/max. Virtual-time quantities — part of the deterministic block.
	CollectiveIters       int     `json:"collective_iters,omitempty"`
	CollectiveIterNS      []int64 `json:"collective_iter_ns,omitempty"`
	CollectiveMeanIterSec float64 `json:"collective_mean_iter_sec,omitempty"`
	CollectiveMaxIterSec  float64 `json:"collective_max_iter_sec,omitempty"`
}

// Perf is the non-deterministic block: how the run performed, not what it
// computed. Never cached, never compared.
type Perf struct {
	WallSeconds float64 `json:"wall_seconds"`
	SimSeconds  float64 `json:"sim_seconds"`
	SimPerWall  float64 `json:"sim_per_wall"`
	Events      uint64  `json:"events"`
	// ForkReused reports that this run restored an already-warmed baseline
	// from the Pool instead of building and replaying its own.
	ForkReused bool `json:"fork_reused,omitempty"`
	// Sync-protocol counters (pdes mode; deltas for forked runs).
	Nulls     uint64 `json:"null_messages,omitempty"`
	Barriers  uint64 `json:"barriers,omitempty"`
	CrossPkts uint64 `json:"cross_lp_packets,omitempty"`
	// ParkedArrivals counts cross-LP packets parked at a horizon for the
	// next segment (resumable in-flight traffic, not loss). It lives in Perf,
	// not Metrics: a forked run's delta excludes packets first parked during
	// the shared warm-up, so the count is not fork/cold-stable the way the
	// committed metrics are.
	ParkedArrivals uint64 `json:"parked_arrivals,omitempty"`
	// PostHorizonDrops counts packets genuinely lost at a terminal horizon —
	// nonzero only under Time Warp, which cannot park.
	PostHorizonDrops uint64 `json:"post_horizon_drops,omitempty"`
}

// Result is the outcome of Run.
type Result struct {
	// Spec is the normalized spec that ran.
	Spec Spec `json:"spec"`
	// Key is the spec's canonical hash.
	Key     string  `json:"key"`
	Metrics Metrics `json:"metrics"`
	Perf    Perf    `json:"perf"`

	// Engine-native results for callers that need more than the summary,
	// never serialized. Every mode sets Stats, this run's delta of the
	// sync-machinery counters, and Partition, the placement the network was
	// built with; Run is what the paper's pipeline measured (RTT samples,
	// boundary captures, fabric stats) in the clos modes full and hybrid.
	Stats     pdes.Stats           `json:"-"`
	Partition *pdes.PartitionStats `json:"-"`
	Run       *core.RunResult      `json:"-"`
}

// reduce fills Metrics and Perf from net after a run to end that took wall
// time, with r.Stats and r.Run already set. Flows counts flows started, open
// loop and collective, in every mode. Delivered bytes and the observed
// cluster's RTT quantiles are what only a clos run's pipeline reports:
// pdes-mode results have never carried total_bytes, and adding it there
// would change every committed pdes-mode Metrics block.
func (r *Result) reduce(net *pdes.Network, end des.Time, wall time.Duration, forked bool) {
	sum := traffic.Summarize(net.Results(), end)
	m := Metrics{
		Flows:      net.FlowsStarted(),
		Completed:  sum.Completed,
		MeanFCTSec: sum.MeanFCT,
		P99FCTSec:  sum.P99FCT,
		Retrans:    sum.Retrans,
		Timeouts:   sum.Timeouts,
		GoodputBps: sum.GoodputBps,
		FaultDrops: net.FaultDrops(),
		RouteDrops: net.RouteDrops(),
	}
	for _, in := range net.Collectives {
		m.CollectiveIters += in.CompletedIters()
		for _, d := range in.IterDurations() {
			m.CollectiveIterNS = append(m.CollectiveIterNS, int64(d))
			m.CollectiveMeanIterSec += d.Seconds()
			m.CollectiveMaxIterSec = max(m.CollectiveMaxIterSec, d.Seconds())
		}
	}
	if n := len(m.CollectiveIterNS); n > 0 {
		m.CollectiveMeanIterSec /= float64(n)
	}
	if r.Run != nil {
		m.TotalBytes = sum.TotalBytes
		if rtts := r.Run.RTTs; rtts.Len() > 0 {
			m.RTTSamples = rtts.Len()
			m.RTTP50Sec = rtts.Quantile(0.5)
			m.RTTP99Sec = rtts.Quantile(0.99)
		}
	}
	st := r.Stats
	r.Metrics = m
	r.Perf = Perf{
		WallSeconds:      wall.Seconds(),
		SimSeconds:       end.Seconds(),
		Events:           st[pdes.Events],
		ForkReused:       forked,
		Nulls:            st[pdes.Nulls],
		Barriers:         st[pdes.Barriers],
		CrossPkts:        st[pdes.CrossPkts],
		ParkedArrivals:   st[pdes.ParkedArrivals],
		PostHorizonDrops: st[pdes.PostHorizonDrops],
	}
	if wall > 0 {
		r.Perf.SimPerWall = r.Perf.SimSeconds / r.Perf.WallSeconds
	}
}
