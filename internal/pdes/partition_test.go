package pdes

import (
	"math"
	"reflect"
	"testing"

	"approxsim/internal/rng"
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

// contiguousBlocks pins block b to LP b*lps/blocks — the same rule the
// PDES network builder uses.
func contiguousBlocks(blocks, lps int) []int {
	out := make([]int, blocks)
	for b := range out {
		out[b] = b * lps / blocks
	}
	return out
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
