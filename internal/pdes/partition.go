// Partitioning: how devices map onto logical processes.
//
// Both supported fabrics are bipartite between blocks (a rack, or a Clos
// cluster: its hosts, stacks, ToRs and aggregation switches) and fabric
// switches (spines, or cores). Blocks are pinned in contiguous runs cut by
// weight (placeBlocks): each LP takes a run of consecutive blocks, and the
// runs are cut where the heaviest LP's summed block weight is least. Blocks
// hold the stateful endpoints whose spread fixes workload balance — a
// workload whose ranks sit on the first racks would otherwise load one LP and
// leave the other idle. Fabric switch f goes to LP f % lps, the historical
// round-robin scatter. Only links into the fabric can then cross an LP
// boundary. The block weights come from one pass over the declared workload
// (weights), which also records the fabric crossings that, once blocks are
// placed, fix the channels the healthy network keeps live and the
// PartitionStats.
//
// Placements that pack the fabric onto few LPs, or refine the realized cut,
// send fewer null messages and cross-LP packets but were measured to buy no
// wall time at 2 or 4 LPs, so the round-robin scatter is the only one.
package pdes

import (
	"fmt"
	"math"

	"approxsim/internal/metrics"
)

// placeBlocks pins n = len(w) blocks onto lps LPs in contiguous runs, every LP
// at least one block, choosing the split whose heaviest LP carries the least
// summed weight w. On an exact tie it takes the split whose LP start blocks
// lie closest, in summed distance, to the even split's (block b on LP
// b*lps/n), and of those the one with the earliest starts — so equal weights
// give exactly the even split. lps must lie in [1, n].
//
// Two dynamic programs over the n² run sums, O(lps·n²) each: the first finds
// the least heaviest load, the second the least distance to the even starts
// among the splits whose every run stays within it. Run sums are accumulated
// left to right, the order a per-LP load sum takes, so "exact tie" means
// bit-equal loads.
func placeBlocks(w []float64, lps int) []int {
	n := len(w)
	out := make([]int, n)
	if lps <= 1 {
		return out
	}
	// run[i][j] is the summed weight of blocks [i, j).
	run := make([][]float64, n+1)
	for i := range run {
		run[i] = make([]float64, n+1)
		for j := i + 1; j <= n; j++ {
			run[i][j] = run[i][j-1] + w[j-1]
		}
	}
	// heavy[k][j]: least heaviest load over splits of blocks [0, j) onto k+1
	// LPs.
	heavy := make([][]float64, lps)
	heavy[0] = run[0]
	for k := 1; k < lps; k++ {
		heavy[k] = make([]float64, n+1)
		for j := k + 1; j <= n; j++ {
			best := math.Inf(1)
			for i := k; i < j; i++ {
				best = math.Min(best, math.Max(heavy[k-1][i], run[i][j]))
			}
			heavy[k][j] = best
		}
	}
	limit := heavy[lps-1][n]

	// dist[k][i]: least summed |start - even start| of LPs k.. when LP k
	// starts at block i and covers through block n-1, every run within
	// limit; -1 when no such split exists.
	even := func(k int) int { return (k*n + lps - 1) / lps }
	abs := func(x int) int { return max(x, -x) }
	dist := make([][]int, lps)
	for k := lps - 1; k >= 0; k-- {
		dist[k] = make([]int, n+1)
		for i := range dist[k] {
			dist[k][i] = -1
		}
		for i := k; i <= n-(lps-k); i++ {
			if k == lps-1 {
				if run[i][n] <= limit {
					dist[k][i] = abs(i - even(k))
				}
				continue
			}
			for j := i + 1; j <= n-(lps-k-1); j++ {
				if d := dist[k+1][j]; d >= 0 && run[i][j] <= limit {
					if d += abs(i - even(k)); dist[k][i] < 0 || d < dist[k][i] {
						dist[k][i] = d
					}
				}
			}
		}
	}
	// Walk the starts forward, taking at each LP the earliest next start that
	// keeps the optimum.
	start := 0
	for k := 0; k < lps-1; k++ {
		rest := dist[k][start] - abs(start-even(k))
		next := start + 1
		for dist[k+1][next] != rest || run[start][next] > limit {
			next++
		}
		for b := start; b < next; b++ {
			out[b] = k
		}
		start = next
	}
	for b := start; b < n; b++ {
		out[b] = lps - 1
	}
	return out
}

// weights is what layout.weigh reads off the declared workload: expected
// event rates — a baseline per device plus each flow's estimated packet
// events on the paths ECMP pins it to in the healthy fabric — and the fabric
// crossings that prove which LP channels the workload can use. The fault
// schedule never enters it.
type weights struct {
	block, fabric []float64 // by block, by fabric switch
	crossings     []crossing
}

// crossing is one flow direction's trip up out of block src, through fabric
// switch f, down into block dst. Every packet of the direction takes it.
type crossing struct{ src, dst, f int }

// PartitionStats summarizes a placement for the metrics registry and the
// CLIs: how many fabric links it cuts, how many promise channels it keeps
// live, and how evenly it spreads the expected event rate.
type PartitionStats struct {
	// CutEdges counts fabric links whose endpoints live on different LPs.
	CutEdges int
	// Channels counts the directed LP channels the healthy network keeps
	// live: those the declared workload uses, or every channel when there is
	// none. Null-message volume is proportional to it. It describes the
	// placement, not a faulted run: under a non-empty fault schedule every
	// channel is live.
	Channels int
	// LoadImbalance is max-LP-weight / mean-LP-weight (1.0 = perfectly even).
	LoadImbalance float64
	// OwnedDevices[l] counts devices (hosts + switches) owned by LP l.
	OwnedDevices []int
	// BlockLP[b] is the LP owning block b (a rack or cluster with its hosts).
	BlockLP []int
}

// partitionStats computes PartitionStats for an assignment, and the directed
// LP channels, indexed from*lps+to, that w's crossings use (Network.active).
// devicesPerBlock is the device count a block contributes (hosts + edge
// switches); each fabric switch contributes one.
func partitionStats(w *weights, blockLP, fabricLP []int, lps, devicesPerBlock int) (*PartitionStats, []bool) {
	st := &PartitionStats{OwnedDevices: make([]int, lps), BlockLP: blockLP}
	load := make([]float64, lps)
	for b, lp := range blockLP {
		st.OwnedDevices[lp] += devicesPerBlock
		load[lp] += w.block[b]
	}
	for f, lp := range fabricLP {
		st.OwnedDevices[lp]++
		load[lp] += w.fabric[f]
	}
	var total, max float64 // total > 0: every fabric switch weighs at least 1
	for _, l := range load {
		total += l
		max = math.Max(max, l)
	}
	st.LoadImbalance = max * float64(lps) / total
	for _, blp := range blockLP {
		for _, flp := range fabricLP {
			if blp != flp {
				st.CutEdges++
			}
		}
	}
	active := make([]bool, lps*lps)
	mark := func(a, b int) {
		if a != b && !active[a*lps+b] {
			active[a*lps+b] = true
			st.Channels++
		}
	}
	for _, c := range w.crossings {
		mark(blockLP[c.src], fabricLP[c.f])
		mark(fabricLP[c.f], blockLP[c.dst])
	}
	return st, active
}

// CollectMetrics implements metrics.Collector so a build's placement streams
// through the registry alongside the synchronization counters.
func (st *PartitionStats) CollectMetrics(e *metrics.Emitter) {
	e.Gauge("cut_edges", int64(st.CutEdges))
	e.Gauge("active_channels", int64(st.Channels))
	e.Float("lp_load_imbalance", st.LoadImbalance)
	for l, n := range st.OwnedDevices {
		// Per-LP ownership under distinct names (gauges max-merge; per-LP
		// names keep each value recoverable), plus the plain gauge whose
		// max-merge reports the heaviest LP.
		e.Gauge(fmt.Sprintf("owned_devices_lp%d", l), int64(n))
		e.Gauge("owned_devices", int64(n))
	}
}
