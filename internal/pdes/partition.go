// Partitioning: how devices map onto logical processes.
//
// The Fig. 1 experiment is only as hostile as its partition makes it. The
// original builder split racks contiguously and scattered spines round-robin,
// which maximizes the number of fabric links that cross an LP boundary —
// every crossing costs a proxied message, and every LP pair with at least one
// potentially-active crossing costs a continuous stream of null-message
// promises. This file makes the placement a first-class, swappable decision:
// a Partitioner assigns the fabric switches of a bipartite fabric
// (ToR↔spine, or agg↔core for the 3-tier Clos) to LPs over an explicit
// communication graph whose nodes are weighted by expected event rate and
// whose edges are weighted by bandwidth plus the workload's traffic.
//
// Rack blocks (a ToR or cluster with its hosts and stacks) are pinned
// contiguously: they hold the stateful endpoints whose spread fixes workload
// balance, every partitioner then sees the identical host→LP map — so
// partition choice can change performance but never which flows start where —
// and for bipartite fabrics every cut edge has exactly one fabric endpoint,
// making the fabric placement the entire cut. The partitioners differ only in
// where the fabric switches go.
//
// What placement can and cannot buy. Under uniform all-to-all traffic the
// EXPECTED fraction of traffic a balanced placement localizes is nearly
// placement-invariant — each LP localizes roughly its share of spines no
// matter which spines they are. The honest levers are therefore:
//
//   - Channel concentration: null-message cost is proportional to the number
//     of active directed LP-pair channels, and a pair is active only if some
//     traffic-carrying link crosses it. Packing the fabric onto as few LPs as
//     the load-imbalance bound allows (rather than scattering it round-robin)
//     removes whole channels, and with them their promise streams.
//   - Realized traffic: ECMP pins each flow to a concrete spine at build time
//     (the hash is a pure function of the flow header), so the per-link
//     packet counts are known exactly before the run. Optimizing the REALIZED
//     cut — not the uniform expectation — recovers the few percent the hash
//     noise leaves on the table, and never does worse than ignoring it.
//
// Graph.ChannelCost prices the first lever in the same units as the second,
// so a single objective — cut weight + ChannelCost × active channels —
// drives both the greedy spine-aware placement and the min-cut refinement.
package pdes

import (
	"fmt"
	"math"
	"sort"

	"approxsim/internal/metrics"
)

// Graph is the device communication graph a Partitioner operates on. Both
// supported fabrics are bipartite between "blocks" (a rack or cluster: the
// hosts, stacks, and edge switches that must stay together) and "fabric"
// switches (spines, or cores), so the graph is stored densely as a
// block × fabric weight matrix.
//
// Weights are expected event rates: a baseline per device (every device costs
// kernel events just by existing) plus the estimated packet events of the
// scheduled workload on the paths ECMP pins its flows to. Edge weights carry
// a bandwidth term for the same reason — a fatter link can carry
// proportionally more surprise traffic — so an untrafficked graph still
// orders placements sensibly.
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
	// quiescent, see System.LimitChannels).
	EdgeWeight [][]float64
	// ChannelCost is the estimated null-message cost of one active directed
	// LP-pair channel over the whole run (≈ horizon / lookahead), in the same
	// units as edge weights (events). It is what makes concentrating the
	// fabric onto few LPs worth paying cut weight for.
	ChannelCost float64
}

// Blocks returns the number of rack/cluster blocks.
func (g *Graph) Blocks() int { return len(g.BlockWeight) }

// Fabric returns the number of fabric switches.
func (g *Graph) Fabric() int { return len(g.FabricWeight) }

// Partitioner places the fabric switches of a Graph onto lps logical
// processes. blockLP pins each block's LP (contiguous by construction — see
// the package comment); the returned slice gives the LP of every fabric
// switch. Implementations must be deterministic: the same inputs must always
// produce the same placement, since committed simulation results are required
// to be bit-identical across partitioners and anything feeding off placement
// (channel activation, metrics) must reproduce.
type Partitioner interface {
	// Name is the flag-friendly identifier ("contiguous", "spine", "mincut").
	Name() string
	// Partition returns fabricLP, len == g.Fabric(), every entry in [0, lps).
	Partition(g *Graph, blockLP []int, lps int) []int
}

// ParsePartitioner maps a command-line name to a Partitioner.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "contiguous":
		return ContiguousPartitioner{}, nil
	case "spine":
		return SpineAwarePartitioner{}, nil
	case "mincut":
		return MinCutPartitioner{}, nil
	default:
		return nil, fmt.Errorf("pdes: unknown partitioner %q (want contiguous, spine, or mincut)", s)
	}
}

// defaultMaxImbalance bounds max-LP-weight / mean-LP-weight for the
// placement-optimizing partitioners. Concentrating the fabric onto few LPs is
// what removes null-message channels, and the fabric is roughly a quarter of
// the expected event rate — a bound of 1.5 lets two LPs absorb it all (at
// typical LP counts) while capping the straggler LP at half again fair share.
const defaultMaxImbalance = 1.5

// ContiguousPartitioner is the historical baseline: fabric switch f goes to
// LP f%lps, ignoring the graph entirely. Combined with the contiguous block
// pinning this reproduces the original leaf-spine placement exactly —
// racks split in contiguous runs, spines scattered round-robin — which is
// also the most boundary-hostile placement a balanced assignment can make on
// a leaf-spine: every LP hosts fabric, so every LP pair carries an active
// channel, and consecutive spines land on different LPs.
type ContiguousPartitioner struct{}

// Name implements Partitioner.
func (ContiguousPartitioner) Name() string { return "contiguous" }

// Partition implements Partitioner.
func (ContiguousPartitioner) Partition(g *Graph, blockLP []int, lps int) []int {
	out := make([]int, g.Fabric())
	for f := range out {
		out[f] = f % lps
	}
	return out
}

// fabricByWeight returns fabric indices ordered by descending node weight,
// ties by ascending index — the deterministic greedy placement order.
func fabricByWeight(g *Graph) []int {
	order := make([]int, g.Fabric())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return g.FabricWeight[order[i]] > g.FabricWeight[order[j]]
	})
	return order
}

// loadBound returns the per-LP weight budget: bound × mean LP weight over the
// whole graph (blocks and fabric).
func loadBound(g *Graph, bound float64, lps int) float64 {
	if bound <= 0 {
		bound = defaultMaxImbalance
	}
	var total float64
	for _, w := range g.BlockWeight {
		total += w
	}
	for _, w := range g.FabricWeight {
		total += w
	}
	return bound * total / float64(lps)
}

// SpineAwarePartitioner packs the fabric onto as few LPs as the imbalance
// bound allows, steering each switch to the LP whose blocks it exchanges the
// most edge weight with. Heavier switches place first; a switch pays
// Graph.ChannelCost × 2(lps−1) — the promise streams a newly fabric-hosting
// LP adds in the worst case — to open an LP no fabric occupies yet, so it
// spills onto a fresh LP only when every occupied one is load-bound. With
// traffic-aware edge weights the affinity term pulls each flow's ECMP-pinned
// spine next to the racks that actually use it; without traffic it
// degenerates to a concentrated bandwidth-affinity assignment.
type SpineAwarePartitioner struct {
	// MaxImbalance bounds max-LP-weight / mean-LP-weight of the result.
	// Zero means the default 1.5.
	MaxImbalance float64
}

// Name implements Partitioner.
func (SpineAwarePartitioner) Name() string { return "spine" }

// Partition implements Partitioner.
func (p SpineAwarePartitioner) Partition(g *Graph, blockLP []int, lps int) []int {
	nF := g.Fabric()
	out := make([]int, nF)
	if lps == 1 {
		return out
	}
	maxLoad := loadBound(g, p.MaxImbalance, lps)
	load := make([]float64, lps)
	for b, lp := range blockLP {
		load[lp] += g.BlockWeight[b]
	}
	count := make([]int, lps)
	openCost := g.ChannelCost * 2 * float64(lps-1)
	affinity := make([]float64, lps)
	for _, f := range fabricByWeight(g) {
		for l := range affinity {
			affinity[l] = 0
		}
		for b, lp := range blockLP {
			affinity[lp] += g.EdgeWeight[b][f]
		}
		best, bestScore := -1, 0.0
		for l := 0; l < lps; l++ {
			if load[l]+g.FabricWeight[f] > maxLoad {
				continue
			}
			score := affinity[l]
			if count[l] == 0 {
				score -= openCost
			}
			if best < 0 || score > bestScore {
				best, bestScore = l, score
			}
		}
		if best < 0 {
			// Every LP is over budget (bound too tight for this graph):
			// fall back to the least-loaded LP so the result stays total.
			for l := 0; l < lps; l++ {
				if best < 0 || load[l] < load[best] {
					best = l
				}
			}
		}
		out[f] = best
		load[best] += g.FabricWeight[f]
		count[best]++
	}
	return out
}

// MinCutPartitioner performs greedy Kernighan–Lin-style refinement: starting
// from both the spine-aware and the contiguous placements, it repeatedly
// applies the single fabric move or fabric↔fabric swap that most reduces the
// objective
//
//	cut weight + Graph.ChannelCost × active directed channels
//
// subject to the load-imbalance bound, until no improving step remains, and
// keeps whichever refined start scores lower. Refining from the contiguous
// seed as well guarantees the result never scores worse than the baseline it
// is compared against. Because blocks are pinned, a move only changes the cut
// along the moved switch's own edges, so each candidate evaluates in O(lps)
// against incrementally maintained per-LP affinities.
type MinCutPartitioner struct {
	// MaxImbalance bounds max-LP-weight / mean-LP-weight after every accepted
	// step. Zero means the default 1.25.
	MaxImbalance float64
	// MaxIters caps accepted refinement steps per seed. Zero means 4×fabric.
	MaxIters int
}

// Name implements Partitioner.
func (MinCutPartitioner) Name() string { return "mincut" }

// Partition implements Partitioner.
func (m MinCutPartitioner) Partition(g *Graph, blockLP []int, lps int) []int {
	if lps == 1 {
		return make([]int, g.Fabric())
	}
	spine := SpineAwarePartitioner{MaxImbalance: m.MaxImbalance}.Partition(g, blockLP, lps)
	m.refine(g, blockLP, spine, lps)
	cont := ContiguousPartitioner{}.Partition(g, blockLP, lps)
	m.refine(g, blockLP, cont, lps)
	if objectiveOf(g, blockLP, cont, lps) < objectiveOf(g, blockLP, spine, lps) {
		return cont
	}
	return spine
}

// pairKey flattens an unordered LP pair into an index for the cut-edge
// counting table.
func pairKey(a, b, lps int) int {
	if a > b {
		a, b = b, a
	}
	return a*lps + b
}

// cutState is the incrementally maintained refinement state.
type cutState struct {
	g       *Graph
	lps     int
	out     []int
	load    []float64
	aff     [][]float64 // aff[f][l]: edge weight between fabric f and LP l's blocks
	cnt     [][]int     // cnt[f][l]: count of weight>0 edges between f and LP l's blocks
	pairCnt []int       // weight>0 cut edges per unordered LP pair (pairKey)
}

func newCutState(g *Graph, blockLP, fabricLP []int, lps int) *cutState {
	s := &cutState{g: g, lps: lps, out: fabricLP,
		load: make([]float64, lps), pairCnt: make([]int, lps*lps)}
	for b, lp := range blockLP {
		s.load[lp] += g.BlockWeight[b]
	}
	s.aff = make([][]float64, g.Fabric())
	s.cnt = make([][]int, g.Fabric())
	for f := 0; f < g.Fabric(); f++ {
		s.load[fabricLP[f]] += g.FabricWeight[f]
		s.aff[f] = make([]float64, lps)
		s.cnt[f] = make([]int, lps)
		for b, lp := range blockLP {
			if w := g.EdgeWeight[b][f]; w > 0 {
				s.aff[f][lp] += w
				s.cnt[f][lp]++
				if lp != fabricLP[f] {
					s.pairCnt[pairKey(lp, fabricLP[f], lps)]++
				}
			}
		}
	}
	return s
}

// moveDelta accumulates, into the sparse delta table, the pair-count changes
// of moving fabric f from LP `from` to LP `to`.
func (s *cutState) moveDelta(f, from, to int, delta map[int]int) {
	for l, c := range s.cnt[f] {
		if c == 0 {
			continue
		}
		if l != from {
			delta[pairKey(l, from, s.lps)] -= c
		}
		if l != to {
			delta[pairKey(l, to, s.lps)] += c
		}
	}
}

// channelDelta converts pair-count changes into the active-directed-channel
// change: a pair crossing zero loses (or gains) both directions.
func (s *cutState) channelDelta(delta map[int]int) int {
	ch := 0
	for k, d := range delta {
		was, now := s.pairCnt[k], s.pairCnt[k]+d
		switch {
		case was > 0 && now <= 0:
			ch -= 2
		case was <= 0 && now > 0:
			ch += 2
		}
	}
	return ch
}

func (s *cutState) apply(delta map[int]int) {
	for k, d := range delta {
		s.pairCnt[k] += d
	}
}

// refine improves fabricLP in place until no move or swap lowers the
// objective (or the iteration cap binds). Best-improvement with a
// deterministic scan order: candidates are considered in (f, to, swap
// partner) order and a new best must be strictly better.
func (m MinCutPartitioner) refine(g *Graph, blockLP, fabricLP []int, lps int) {
	s := newCutState(g, blockLP, fabricLP, lps)
	maxLoad := loadBound(g, m.MaxImbalance, lps)
	iters := m.MaxIters
	if iters <= 0 {
		iters = 4 * g.Fabric()
	}
	delta := make(map[int]int, 2*lps)
	for iter := 0; iter < iters; iter++ {
		const eps = 1e-9
		bestObj := -eps
		bestF, bestTo, bestSwap := -1, -1, -1
		for f := 0; f < g.Fabric(); f++ {
			from := s.out[f]
			for to := 0; to < lps; to++ {
				if to == from {
					continue
				}
				// Move f from→to.
				if s.load[to]+g.FabricWeight[f] <= maxLoad {
					clear(delta)
					s.moveDelta(f, from, to, delta)
					obj := s.aff[f][from] - s.aff[f][to] +
						g.ChannelCost*float64(s.channelDelta(delta))
					if obj < bestObj {
						bestObj, bestF, bestTo, bestSwap = obj, f, to, -1
					}
				}
				// Swap f with each fabric switch on `to`.
				for f2 := f + 1; f2 < g.Fabric(); f2++ {
					if s.out[f2] != to {
						continue
					}
					if s.load[to]-g.FabricWeight[f2]+g.FabricWeight[f] > maxLoad ||
						s.load[from]-g.FabricWeight[f]+g.FabricWeight[f2] > maxLoad {
						continue
					}
					clear(delta)
					s.moveDelta(f, from, to, delta)
					s.moveDelta(f2, to, from, delta)
					obj := s.aff[f][from] - s.aff[f][to] +
						s.aff[f2][to] - s.aff[f2][from] +
						g.ChannelCost*float64(s.channelDelta(delta))
					if obj < bestObj {
						bestObj, bestF, bestTo, bestSwap = obj, f, to, f2
					}
				}
			}
		}
		if bestF < 0 {
			break
		}
		from := s.out[bestF]
		clear(delta)
		s.moveDelta(bestF, from, bestTo, delta)
		if bestSwap >= 0 {
			s.moveDelta(bestSwap, bestTo, from, delta)
			s.out[bestSwap] = from
			s.load[bestTo] -= g.FabricWeight[bestSwap]
			s.load[from] += g.FabricWeight[bestSwap]
		}
		s.apply(delta)
		s.out[bestF] = bestTo
		s.load[from] -= g.FabricWeight[bestF]
		s.load[bestTo] += g.FabricWeight[bestF]
	}
}

// objectiveOf scores a placement: cut weight plus the channel cost of every
// active directed LP-pair channel (pairs crossed by at least one
// traffic-carrying edge, both directions).
func objectiveOf(g *Graph, blockLP, fabricLP []int, lps int) float64 {
	var cut float64
	pairs := make([]bool, lps*lps)
	channels := 0
	for b, blp := range blockLP {
		for f, flp := range fabricLP {
			if blp == flp {
				continue
			}
			w := g.EdgeWeight[b][f]
			cut += w
			if w > 0 {
				if k := pairKey(blp, flp, lps); !pairs[k] {
					pairs[k] = true
					channels += 2
				}
			}
		}
	}
	return cut + g.ChannelCost*float64(channels)
}

// PartitionStats summarizes a placement for the metrics registry and the
// CLIs: how much of the graph the partition cuts, how many promise channels
// it keeps alive, and how evenly it spreads the expected event rate.
type PartitionStats struct {
	Name string
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
}

// partitionStats computes PartitionStats for an assignment. devicesPerBlock
// is the device count a block contributes (hosts + edge switches); each
// fabric switch contributes one.
func partitionStats(name string, g *Graph, blockLP, fabricLP []int, lps, devicesPerBlock int) *PartitionStats {
	st := &PartitionStats{Name: name, OwnedDevices: make([]int, lps)}
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
