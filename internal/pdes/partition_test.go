package pdes

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
	"approxsim/internal/traffic"
)

// contiguousBlocks pins block b to LP b*lps/blocks — the even split, which
// the PDES network builder's weighted placement (placeBlocks) reduces to when
// every block weighs the same.
func contiguousBlocks(blocks, lps int) []int {
	out := make([]int, blocks)
	for b := range out {
		out[b] = b * lps / blocks
	}
	return out
}

// bruteBlocks enumerates every contiguous split of len(w) blocks onto lps
// non-empty LP runs and returns the one placeBlocks must choose: least
// heaviest LP load, then least summed distance of the LP start blocks from
// the even split's, then earliest starts.
func bruteBlocks(w []float64, lps int) []int {
	n := len(w)
	even := contiguousBlocks(n, lps)
	evenStart := make([]int, lps)
	for b := n - 1; b >= 0; b-- {
		evenStart[even[b]] = b
	}
	var best []int
	bestHeavy, bestDist := math.Inf(1), 0
	starts := make([]int, lps)
	var walk func(k int)
	walk = func(k int) {
		if k == lps {
			heavy, dist := 0.0, 0
			for l := 0; l < lps; l++ {
				end := n
				if l+1 < lps {
					end = starts[l+1]
				}
				load := 0.0
				for b := starts[l]; b < end; b++ {
					load += w[b]
				}
				heavy = math.Max(heavy, load)
				if d := starts[l] - evenStart[l]; d < 0 {
					dist -= d
				} else {
					dist += d
				}
			}
			if heavy < bestHeavy || heavy == bestHeavy && dist < bestDist {
				bestHeavy, bestDist = heavy, dist
				best = make([]int, n)
				for l := 0; l < lps; l++ {
					for b := starts[l]; b < n && (l+1 == lps || b < starts[l+1]); b++ {
						best[b] = l
					}
				}
			}
			return
		}
		// LP k starts after LP k-1's first block and leaves one block for
		// each later LP; ascending starts make the first best the earliest.
		for s := starts[k-1] + 1; s <= n-(lps-k); s++ {
			starts[k] = s
			walk(k + 1)
		}
	}
	if lps == 1 {
		return make([]int, n)
	}
	walk(1)
	return best
}

// TestPlaceBlocksMatchesBruteForce checks the weighted block placement against
// exhaustive search, on real-valued weights and on small integer weights
// (where exact ties between splits are common).
func TestPlaceBlocksMatchesBruteForce(t *testing.T) {
	r := rng.NewLabeled(1, "place-blocks")
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(10)
		lps := 1 + r.Intn(min(n, 5))
		w := make([]float64, n)
		for b := range w {
			if trial%2 == 0 {
				w[b] = 100 * r.Float64()
			} else {
				w[b] = float64(r.Intn(4))
			}
		}
		if got, want := placeBlocks(w, lps), bruteBlocks(w, lps); !reflect.DeepEqual(got, want) {
			t.Fatalf("weights %v on %d LPs: placeBlocks = %v, brute force = %v", w, lps, got, want)
		}
	}
}

// TestPlaceBlocksEdgeCases pins the tie rule and the degenerate inputs.
func TestPlaceBlocksEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    []float64
		lps  int
		want []int
	}{
		// Splits after blocks 0, 1 and 2 all load each LP with 5; the even
		// split's start (block 2) wins the tie.
		{"tie takes the even start", []float64{5, 0, 0, 5}, 2, []int{0, 0, 1, 1}},
		{"tie on an odd count", []float64{5, 0, 0, 5, 0}, 2, []int{0, 0, 0, 1, 1}},
		{"skew moves the cut", []float64{9, 9, 1, 1, 1, 1, 1, 1}, 2, []int{0, 1, 1, 1, 1, 1, 1, 1}},
		{"one LP", []float64{3, 1, 4}, 1, []int{0, 0, 0}},
		{"one block per LP", []float64{9, 1, 1, 9}, 4, []int{0, 1, 2, 3}},
	} {
		if got := placeBlocks(tc.w, tc.lps); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: placeBlocks(%v, %d) = %v, want %v", tc.name, tc.w, tc.lps, got, tc.want)
		}
	}
	// Equal weights — zero included — give exactly the even split.
	for n := 1; n <= 10; n++ {
		for lps := 1; lps <= n; lps++ {
			for _, v := range []float64{0, 7} {
				w := make([]float64, n)
				for b := range w {
					w[b] = v
				}
				if got, want := placeBlocks(w, lps), contiguousBlocks(n, lps); !reflect.DeepEqual(got, want) {
					t.Errorf("%d blocks of weight %g on %d LPs: %v, want the even split %v", n, v, lps, got, want)
				}
			}
		}
	}
}

// TestFabricPlacementRoundRobin pins the fabric placement on both fabrics:
// fabric switch f (spine f on a leaf-spine, core f on a Clos) runs on LP
// f % lps, whatever the LP count.
func TestFabricPlacementRoundRobin(t *testing.T) {
	for _, cfg := range []topology.Config{topology.DefaultLeafSpineConfig(8), topology.DefaultClosConfig(4)} {
		l := newLayout(cfg)
		for _, lps := range []int{2, 3, 4} {
			net, err := Build(cfg, lps, nil)
			if err != nil {
				t.Fatal(err)
			}
			for f := 0; f < l.fabric(); f++ {
				id := l.fabricBase + packet.NodeID(f)
				if got, want := net.switchByID(id).Kernel(), net.Sys.LP(f%lps).Kernel(); got != want {
					t.Errorf("%s lps=%d: fabric switch %d (%s) is not on LP %d",
						l.unit, lps, f, cfg.NodeName(id), f%lps)
				}
			}
		}
	}
}

// TestPartitionStatsExact pins the stats computation on hand-built weights:
// 2 blocks on 2 LPs, 2 fabric switches, fabric f placed with block f. The one
// crossing, block 1 through fabric 0 into block 0, keeps only the channel
// LP 1 → LP 0 live.
func TestPartitionStatsExact(t *testing.T) {
	w := &weights{
		block:     []float64{10, 10},
		fabric:    []float64{2, 2},
		crossings: []crossing{{src: 1, dst: 0, f: 0}},
	}
	st, active := partitionStats(w, []int{0, 1}, []int{0, 1}, 2, 3)
	// Cut edges: (block 1, fabric 0) and (block 0, fabric 1).
	if st.CutEdges != 2 {
		t.Errorf("CutEdges = %d, want 2", st.CutEdges)
	}
	if want := []bool{false, false, true, false}; st.Channels != 1 || !reflect.DeepEqual(active, want) {
		t.Errorf("Channels = %d, active %v; want 1, %v", st.Channels, active, want)
	}
	if math.Abs(st.LoadImbalance-1) > 1e-12 {
		t.Errorf("LoadImbalance = %g, want 1 (symmetric loads)", st.LoadImbalance)
	}
	if want := []int{4, 4}; !reflect.DeepEqual(st.OwnedDevices, want) {
		t.Errorf("OwnedDevices = %v, want %v", st.OwnedDevices, want)
	}
}

// TestChannelsMatchEngine pins the channel quiescence set by its size on both
// fabrics, with open-loop and collective workloads and without any: each
// healthy build keeps exactly active of its total directed channels live
// (sending promises), and Partition.Channels reports that same count.
func TestChannelsMatchEngine(t *testing.T) {
	ring, err := collective.Parse("ring:size=64KB,iters=2,hosts=8")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg           topology.Config
		lps           int
		load          float64 // Poisson load over 2 ms, seed 1; 0 = none
		opts          []Option
		active, total int
	}{
		{topology.DefaultLeafSpineConfig(8), 4, 0.01, nil, 5, 12},
		{topology.DefaultLeafSpineConfig(8), 8, 0.01, nil, 7, 56},
		{topology.DefaultLeafSpineConfig(16), 8, 0.05, nil, 22, 56},
		{topology.DefaultLeafSpineConfig(8), 8, 0.4, nil, 44, 56},
		{topology.DefaultLeafSpineConfig(8), 2, 0.6, nil, 2, 2},
		{topology.DefaultClosConfig(4), 4, 0.01, nil, 3, 10},
		{topology.DefaultClosConfig(8), 8, 0.05, nil, 16, 26},
		{topology.DefaultLeafSpineConfig(8), 4, 0, []Option{WithCollectives(ring...)}, 10, 12},
		{topology.DefaultLeafSpineConfig(8), 4, 0, nil, 12, 12},
	} {
		l := newLayout(tc.cfg)
		name := fmt.Sprintf("%d %ss on %d LPs, load %g, %d collectives", l.blocks, l.unit, tc.lps, tc.load, len(tc.opts))
		var specs []traffic.FlowSpec
		if tc.load > 0 {
			if specs, err = poissonSpecs(tc.cfg, tc.load, 2*des.Millisecond, 1); err != nil {
				t.Fatal(err)
			}
		}
		net, err := Build(tc.cfg, tc.lps, specs, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		active, total := 0, 0
		for _, lp := range net.Sys.lps {
			for _, o := range lp.outs {
				total++
				if !o.quiescent {
					active++
				}
			}
		}
		if active != tc.active || total != tc.total {
			t.Errorf("%s: engine keeps %d of %d channels live, want %d of %d", name, active, total, tc.active, tc.total)
		}
		if net.Partition.Channels != active {
			t.Errorf("%s: Partition.Channels = %d, engine keeps %d", name, net.Partition.Channels, active)
		}
	}
}

// TestRingPlacementSplitsTheWork builds the 8-rack ring all-reduce whose 16
// ranks are hosts 0–15 — racks 0–3, the other four racks idle — on 2 LPs.
// The even split would hand LP 0 every rank; the weighted split must cut
// after rack 1 and bring the graph's load imbalance near 1.
func TestRingPlacementSplitsTheWork(t *testing.T) {
	ps, err := collective.Parse("ring:size=1MB,iters=8,hosts=16,gap=50us")
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(topology.DefaultLeafSpineConfig(8), 2, nil, WithCollectives(ps...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := net.Partition.BlockLP, []int{0, 0, 1, 1, 1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("racks placed %v, want %v", got, want)
	}
	if net.Partition.LoadImbalance > 1.1 {
		t.Errorf("LoadImbalance = %.3f, want <= 1.1", net.Partition.LoadImbalance)
	}
}
