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
// boundary.
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

// Graph is the device communication graph of a build, stored densely as a
// block × fabric weight matrix. Block weights place the blocks; every weight
// feeds the placement statistics (PartitionStats).
//
// Weights are expected event rates: a baseline per device (every device costs
// kernel events just by existing) plus the estimated packet events of the
// scheduled workload on the paths ECMP pins its flows to. Without a workload
// every edge carries its normalized bandwidth instead.
type Graph struct {
	// BlockWeight[b] is the expected event rate of block b (hosts + edge
	// switch + scheduled flow events).
	BlockWeight []float64
	// FabricWeight[f] is the expected event rate of fabric switch f.
	FabricWeight []float64
	// EdgeWeight[b][f] is the weight of the (block b, fabric f) link:
	// normalized bandwidth plus estimated packets the workload pins onto it.
	// Zero means the link exists but the workload never touches it — a cut
	// there costs no packets and activates no channel (it will be marked
	// quiescent while the network is healthy, see Network.SetFaults).
	EdgeWeight [][]float64
}

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

// pairKey flattens an unordered LP pair into an index for the cut-edge
// counting table.
func pairKey(a, b, lps int) int {
	if a > b {
		a, b = b, a
	}
	return a*lps + b
}

// PartitionStats summarizes a placement for the metrics registry and the
// CLIs: how much of the graph the partition cuts, how many promise channels
// it keeps alive, and how evenly it spreads the expected event rate.
type PartitionStats struct {
	// CutEdges counts fabric links whose endpoints live on different LPs.
	CutEdges int
	// CutWeight is the summed edge weight of those links — with traffic-aware
	// weights, an a-priori estimate of cross-LP packet volume.
	CutWeight float64
	// Channels counts active directed LP-pair channels: ordered pairs crossed
	// by at least one traffic-carrying cut edge. Null-message volume is
	// proportional to it.
	Channels int
	// LoadImbalance is max-LP-weight / mean-LP-weight (1.0 = perfectly even).
	LoadImbalance float64
	// OwnedDevices[l] counts devices (hosts + switches) owned by LP l.
	OwnedDevices []int
	// BlockLP[b] is the LP owning block b (a rack or cluster with its hosts).
	BlockLP []int
}

// partitionStats computes PartitionStats for an assignment. devicesPerBlock
// is the device count a block contributes (hosts + edge switches); each
// fabric switch contributes one.
func partitionStats(g *Graph, blockLP, fabricLP []int, lps, devicesPerBlock int) *PartitionStats {
	st := &PartitionStats{OwnedDevices: make([]int, lps), BlockLP: blockLP}
	load := make([]float64, lps)
	for b, lp := range blockLP {
		st.OwnedDevices[lp] += devicesPerBlock
		load[lp] += g.BlockWeight[b]
	}
	for f, lp := range fabricLP {
		st.OwnedDevices[lp]++
		load[lp] += g.FabricWeight[f]
	}
	var total, max float64
	for _, l := range load {
		total += l
		max = math.Max(max, l)
	}
	if total > 0 {
		st.LoadImbalance = max * float64(lps) / total
	}
	pairs := make([]bool, lps*lps)
	for b, blp := range blockLP {
		for f, flp := range fabricLP {
			if blp == flp {
				continue
			}
			st.CutEdges++
			st.CutWeight += g.EdgeWeight[b][f]
			if g.EdgeWeight[b][f] > 0 {
				if k := pairKey(blp, flp, lps); !pairs[k] {
					pairs[k] = true
					st.Channels += 2
				}
			}
		}
	}
	return st
}

// CollectMetrics implements metrics.Collector so a build's placement streams
// through the registry alongside the synchronization counters.
func (st *PartitionStats) CollectMetrics(e *metrics.Emitter) {
	e.Gauge("cut_edges", int64(st.CutEdges))
	e.Gauge("active_channels", int64(st.Channels))
	e.Float("cut_weight", st.CutWeight)
	e.Float("lp_load_imbalance", st.LoadImbalance)
	for l, n := range st.OwnedDevices {
		// Per-LP ownership under distinct names (gauges max-merge; per-LP
		// names keep each value recoverable), plus the plain gauge whose
		// max-merge reports the heaviest LP.
		e.Gauge(fmt.Sprintf("owned_devices_lp%d", l), int64(n))
		e.Gauge("owned_devices", int64(n))
	}
}
