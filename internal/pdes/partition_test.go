package pdes

import (
	"math"
	"reflect"
	"testing"

	"approxsim/internal/collective"
	"approxsim/internal/des"
	"approxsim/internal/rng"
	"approxsim/internal/topology"
)

// randGraph builds a random bipartite communication graph: block weights near
// 10, fabric weights near 2, edges a mix of zero (untrafficked) and positive
// weights, and a channel cost comparable to a few edges.
func randGraph(seed uint64, blocks, fabric int) *Graph {
	r := rng.NewLabeled(seed, "partition-test")
	g := &Graph{
		BlockWeight:  make([]float64, blocks),
		FabricWeight: make([]float64, fabric),
		EdgeWeight:   make([][]float64, blocks),
		ChannelCost:  5 * r.Float64(),
	}
	for b := range g.BlockWeight {
		g.BlockWeight[b] = 8 + 4*r.Float64()
		g.EdgeWeight[b] = make([]float64, fabric)
		for f := range g.EdgeWeight[b] {
			if r.Intn(3) > 0 {
				g.EdgeWeight[b][f] = 10 * r.Float64()
			}
		}
	}
	for f := range g.FabricWeight {
		g.FabricWeight[f] = 1 + 2*r.Float64()
	}
	return g
}

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

func TestContiguousPartitionerBaseline(t *testing.T) {
	g := randGraph(1, 6, 5)
	got := ContiguousPartitioner{}.Partition(g, contiguousBlocks(6, 3), 3)
	want := []int{0, 1, 2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("contiguous placement = %v, want round-robin %v", got, want)
	}
}

func TestParsePartitioner(t *testing.T) {
	for _, name := range []string{"contiguous", "spine", "mincut"} {
		p, err := ParsePartitioner(name)
		if err != nil {
			t.Fatalf("ParsePartitioner(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ParsePartitioner(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ParsePartitioner("metis"); err == nil {
		t.Error("ParsePartitioner accepted an unknown name")
	}
}

// TestPartitionersRespectLoadBound checks the imbalance bound on a graph
// where a bounded placement certainly exists (fabric weight is a small
// fraction of the total), for every LP count the network builder uses.
func TestPartitionersRespectLoadBound(t *testing.T) {
	for _, lps := range []int{2, 3, 4} {
		blocks, fabric := 2*lps, lps
		g := randGraph(uint64(lps), blocks, fabric)
		blockLP := contiguousBlocks(blocks, lps)
		for _, p := range []Partitioner{SpineAwarePartitioner{}, MinCutPartitioner{}} {
			fabricLP := p.Partition(g, blockLP, lps)
			if len(fabricLP) != fabric {
				t.Fatalf("%s lps=%d: placement has %d entries, want %d", p.Name(), lps, len(fabricLP), fabric)
			}
			load := make([]float64, lps)
			for b, lp := range blockLP {
				load[lp] += g.BlockWeight[b]
			}
			for f, lp := range fabricLP {
				if lp < 0 || lp >= lps {
					t.Fatalf("%s lps=%d: fabric %d placed on invalid LP %d", p.Name(), lps, f, lp)
				}
				load[lp] += g.FabricWeight[f]
			}
			bound := loadBound(g, 0, lps)
			for l, w := range load {
				if w > bound+1e-9 {
					t.Errorf("%s lps=%d: LP %d load %.2f exceeds bound %.2f", p.Name(), lps, l, w, bound)
				}
			}
		}
	}
}

// TestMinCutNotWorseThanContiguous is the refinement guarantee: because the
// min-cut partitioner also refines from the contiguous seed, its objective can
// never exceed the baseline's.
func TestMinCutNotWorseThanContiguous(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := randGraph(seed, 8, 4)
		blockLP := contiguousBlocks(8, 4)
		cont := ContiguousPartitioner{}.Partition(g, blockLP, 4)
		mc := MinCutPartitioner{}.Partition(g, blockLP, 4)
		co := objectiveOf(g, blockLP, cont, 4)
		mo := objectiveOf(g, blockLP, mc, 4)
		if mo > co+1e-9 {
			t.Errorf("seed %d: mincut objective %.3f worse than contiguous %.3f", seed, mo, co)
		}
	}
}

// TestSpineConcentratesChannels: with a meaningful channel cost and load
// slack, the spine-aware packer must keep fewer promise channels alive than
// round-robin scatter, which activates every LP pair.
func TestSpineConcentratesChannels(t *testing.T) {
	const lps = 4
	g := randGraph(7, 2*lps, lps)
	g.ChannelCost = 100 // make concentration clearly worth any cut weight
	blockLP := contiguousBlocks(2*lps, lps)
	cont := partitionStats("contiguous", g, blockLP,
		ContiguousPartitioner{}.Partition(g, blockLP, lps), lps, 1)
	spine := partitionStats("spine", g, blockLP,
		SpineAwarePartitioner{}.Partition(g, blockLP, lps), lps, 1)
	if spine.Channels >= cont.Channels {
		t.Errorf("spine keeps %d active channels, contiguous %d — packing bought nothing",
			spine.Channels, cont.Channels)
	}
}

// TestPlacementBeatsContiguous runs the Fig. 1 leaf-spine workload (8 racks,
// 4 LPs, load 0.7, 2 ms) over a fixed seed set: summed over the seeds, the
// spine-aware and min-cut placements must each send fewer cross-LP packets
// AND fewer null messages than contiguous. Cross-LP packets are exact for a
// placement; the null count wobbles with goroutine timing, but whole channels
// going quiescent moves it by far more than that jitter.
func TestPlacementBeatsContiguous(t *testing.T) {
	cfg := topology.DefaultLeafSpineConfig(8)
	type sums struct{ cross, nulls uint64 }
	total := map[string]sums{}
	for _, name := range []string{"contiguous", "spine", "mincut"} {
		part, err := ParsePartitioner(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2, 3, 42} {
			net, err := runNetwork(cfg, 4, 0.7, 2*des.Millisecond, seed, NullMessages, nil, nil,
				WithPartitioner(part))
			if err != nil {
				t.Fatal(err)
			}
			st := net.Sys.Stats()
			if st[Violations] != 0 || st[QuiescentSends] != 0 {
				t.Fatalf("%s seed=%d: %d violations, %d quiescent-channel sends",
					name, seed, st[Violations], st[QuiescentSends])
			}
			s := total[name]
			s.cross += st[CrossPkts]
			s.nulls += st[Nulls]
			total[name] = s
		}
	}
	base := total["contiguous"]
	for _, name := range []string{"spine", "mincut"} {
		if s := total[name]; s.cross >= base.cross || s.nulls >= base.nulls {
			t.Errorf("%s cross=%d nulls=%d does not beat contiguous cross=%d nulls=%d",
				name, s.cross, s.nulls, base.cross, base.nulls)
		}
	}
}

// TestPartitionersDeterministic: identical inputs must produce identical
// placements — committed results are required to be reproducible and the
// quiescence analysis is derived from the placement.
func TestPartitionersDeterministic(t *testing.T) {
	blockLP := contiguousBlocks(8, 4)
	for _, p := range []Partitioner{ContiguousPartitioner{}, SpineAwarePartitioner{}, MinCutPartitioner{}} {
		a := p.Partition(randGraph(3, 8, 4), blockLP, 4)
		b := p.Partition(randGraph(3, 8, 4), blockLP, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s is nondeterministic: %v vs %v", p.Name(), a, b)
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
		ChannelCost: 1,
	}
	blockLP := []int{0, 1}
	fabricLP := []int{0, 1} // fabric 0 with block 0, fabric 1 with block 1
	st := partitionStats("test", g, blockLP, fabricLP, 2, 3)
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
// after rack 1, identically under every partitioner, and bring the graph's
// load imbalance near 1.
func TestRingPlacementSplitsTheWork(t *testing.T) {
	ps, err := collective.Parse("ring:size=1MB,iters=8,hosts=16,gap=50us")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 1, 1, 1, 1}
	for _, p := range []Partitioner{ContiguousPartitioner{}, SpineAwarePartitioner{}, MinCutPartitioner{}} {
		net, err := Build(topology.DefaultLeafSpineConfig(8), 2, nil, WithCollectives(ps...), WithPartitioner(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Partition.BlockLP; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: racks placed %v, want %v", p.Name(), got, want)
		}
		if p.Name() == "contiguous" && net.Partition.LoadImbalance > 1.1 {
			t.Errorf("contiguous: LoadImbalance = %.3f, want <= 1.1", net.Partition.LoadImbalance)
		}
	}
}
