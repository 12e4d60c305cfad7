package pdes

import (
	"math"
	"reflect"
	"testing"

	"approxsim/internal/collective"
	"approxsim/internal/packet"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
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

// TestPartitionStatsExact pins the stats computation on a hand-built graph:
// 2 blocks on 2 LPs, 2 fabric switches, one placed locally and one across.
func TestPartitionStatsExact(t *testing.T) {
	g := &Graph{
		BlockWeight:  []float64{10, 10},
		FabricWeight: []float64{2, 2},
		EdgeWeight: [][]float64{
			{3, 0}, // block 0: traffic to fabric 0 only
			{1, 4}, // block 1: traffic to both
		},
	}
	blockLP := []int{0, 1}
	fabricLP := []int{0, 1} // fabric 0 with block 0, fabric 1 with block 1
	st := partitionStats(g, blockLP, fabricLP, 2, 3)
	// Cut edges: (block1, fabric0) weight 1 and (block0, fabric1) weight 0.
	if st.CutEdges != 2 {
		t.Errorf("CutEdges = %d, want 2", st.CutEdges)
	}
	if math.Abs(st.CutWeight-1) > 1e-12 {
		t.Errorf("CutWeight = %g, want 1", st.CutWeight)
	}
	// Only the weight-1 edge activates a channel (both directions); the
	// zero-weight cut edge is quiescent.
	if st.Channels != 2 {
		t.Errorf("Channels = %d, want 2", st.Channels)
	}
	if math.Abs(st.LoadImbalance-1) > 1e-12 {
		t.Errorf("LoadImbalance = %g, want 1 (symmetric loads)", st.LoadImbalance)
	}
	if want := []int{4, 4}; !reflect.DeepEqual(st.OwnedDevices, want) {
		t.Errorf("OwnedDevices = %v, want %v", st.OwnedDevices, want)
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
