package embed

// This file preserves the seed SGNS trainer as a test oracle. The production
// trainer keeps its vectors in flat slabs and, for the default five
// negatives, updates a context's six distinct output rows in one fused pass;
// the oracle runs one sgdPair per (input, output) pair over per-node rows,
// exactly as the seed did. Every comparison below is bit-exact.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// seedTrainSGNS is the seed trainer, kept verbatim apart from names and
// comments.
func seedTrainSGNS(g *graph.Graph, walks [][]graph.NodeID, cfg SGNSConfig) [][]float64 {
	n := g.NumNodes()
	dim, window, negs := cfg.dim(), cfg.window(), cfg.negatives()
	rng := rand.New(rand.NewSource(cfg.Seed))

	in := make([][]float64, n)
	out := make([][]float64, n)
	for u := 0; u < n; u++ {
		in[u] = make([]float64, dim)
		out[u] = make([]float64, dim)
		for d := range in[u] {
			in[u][d] = (rng.Float64() - 0.5) / float64(dim)
		}
	}

	table := seedNoiseTable(g, 1<<17)
	if len(table) == 0 {
		return in
	}

	totalPairs := 0
	for _, w := range walks {
		totalPairs += len(w)
	}
	totalSteps := cfg.epochs() * totalPairs
	step := 0
	lr0 := cfg.lr()
	grad := make([]float64, dim)

	for epoch := 0; epoch < cfg.epochs(); epoch++ {
		for _, walk := range walks {
			for i, center := range walk {
				step++
				lr := lr0 * (1 - float64(step)/float64(totalSteps+1))
				if lr < 1e-4 {
					lr = 1e-4
				}
				lo := i - window
				if lo < 0 {
					lo = 0
				}
				hi := i + window
				if hi >= len(walk) {
					hi = len(walk) - 1
				}
				for j := lo; j <= hi; j++ {
					if j == i {
						continue
					}
					ctx := walk[j]
					seedSGDPair(in[center], out[ctx], 1, lr, grad)
					for k := 0; k < negs; k++ {
						neg := table[rng.Intn(len(table))]
						if neg == ctx {
							continue
						}
						seedSGDPair(in[center], out[neg], 0, lr, grad)
					}
					for d := range grad {
						in[center][d] += grad[d]
						grad[d] = 0
					}
				}
			}
		}
	}
	return in
}

func seedSGDPair(inVec, outVec []float64, label float64, lr float64, grad []float64) {
	var dot float64
	for d := range inVec {
		dot += inVec[d] * outVec[d]
	}
	gld := (label - sigmoid(dot)) * lr
	for d := range inVec {
		grad[d] += gld * outVec[d]
		outVec[d] += gld * inVec[d]
	}
}

// seedNoiseTable is the seed table: a fixed size and a floored share per
// node, so a node whose share is below one slot gets none.
func seedNoiseTable(g *graph.Graph, size int) []graph.NodeID {
	n := g.NumNodes()
	weights := make([]float64, n)
	var total float64
	for u := 0; u < n; u++ {
		w := math.Pow(float64(g.Degree(graph.NodeID(u))), 0.75)
		weights[u] = w
		total += w
	}
	if total == 0 {
		return nil
	}
	table := make([]graph.NodeID, 0, size)
	for u := 0; u < n; u++ {
		count := int(weights[u] / total * float64(size))
		for i := 0; i < count; i++ {
			table = append(table, graph.NodeID(u))
		}
	}
	for len(table) == 0 && n > 0 {
		table = append(table, 0)
	}
	return table
}

// TestTrainSGNSMatchesSeedTrainer requires the production trainer to return
// the seed trainer's embeddings bit for bit across dimensions, negative
// counts (the batched default of five and the pair-by-pair others), window
// radii and epoch counts. The graphs steer the trainer onto both paths: on
// the star the hub holds about a third of the noise table, so a context's
// negatives often repeat or hit the context node; the edgeless graph has
// no noise table at all.
func TestTrainSGNSMatchesSeedTrainer(t *testing.T) {
	ba := gen.BarabasiAlbert(80, 3, 5)
	withIsolated := graph.NewBuilder(ba.NumNodes() + 6)
	for _, e := range ba.Edges() {
		withIsolated.TryAddEdge(e.U, e.V)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"BA", ba},
		{"star", gen.Star(12)},
		{"cycle", gen.Cycle(25)},
		{"isolated", withIsolated.Graph()},
		{"edgeless", graph.MustFromEdges(7, nil)},
	}
	for _, tg := range graphs {
		walks := RandomWalks(tg.g, WalkConfig{WalksPerNode: 3, WalkLength: 12, Seed: 2})
		for _, dim := range []int{1, 7, 32} {
			for _, negs := range []int{1, 3, 5, 8} {
				for _, window := range []int{1, 5} {
					for _, epochs := range []int{1, 2} {
						cfg := SGNSConfig{Dim: dim, Negatives: negs, Window: window, Epochs: epochs, Seed: 9}
						name := fmt.Sprintf("%s/dim=%d/negs=%d/window=%d/epochs=%d", tg.name, dim, negs, window, epochs)
						requireSameEmbedding(t, name, TrainSGNS(tg.g, walks, cfg), seedTrainSGNS(tg.g, walks, cfg))
					}
				}
			}
		}
	}
}

func requireSameEmbedding(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", name, len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			t.Fatalf("%s: node %d has dim %d, want %d", name, u, len(got[u]), len(want[u]))
		}
		for d := range want[u] {
			if math.Float64bits(got[u][d]) != math.Float64bits(want[u][d]) {
				t.Fatalf("%s: node %d dim %d = %v, seed trainer %v", name, u, d, got[u][d], want[u][d])
			}
		}
	}
}

// TestNoiseTableMatchesSeedBelowCap pins the table byte for byte against the
// seed table while it stays at 2^17 slots (up to 16,384 nodes), on graphs
// where the seed table already gave every non-isolated node a slot.
func TestNoiseTableMatchesSeedBelowCap(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.BarabasiAlbert(1<<14, 3, 1),
		gen.Cycle(1 << 14),
		gen.Star(100),
		gen.PlantedPartition(4, 75, 0.15, 0.01, 13),
	} {
		n := g.NumNodes()
		got := buildNoiseTable(g, noiseTableSize(n))
		want := seedNoiseTable(g, 1<<17)
		if len(got) != len(want) {
			t.Fatalf("n=%d: table has %d slots, seed table %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: slot %d = node %d, seed table node %d", n, i, got[i], want[i])
			}
		}
	}
}
