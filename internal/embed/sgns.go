package embed

import (
	"math"
	"math/rand"

	"edgeshed/internal/graph"
)

// SGNSConfig configures skip-gram-with-negative-sampling training. Zero
// values select word2vec-style defaults.
type SGNSConfig struct {
	// Dim is the embedding dimension; 0 means 64.
	Dim int
	// Window is the skip-gram context radius; 0 means 5.
	Window int
	// Negatives is the number of negative samples per positive pair; 0
	// means 5.
	Negatives int
	// Epochs is how many passes over the walk corpus; 0 means 2.
	Epochs int
	// LearningRate is the initial SGD step, decayed linearly to 1e-4 over
	// training; 0 means 0.025.
	LearningRate float64
	// Seed drives initialization and negative sampling.
	Seed int64
}

func (c SGNSConfig) dim() int {
	if c.Dim <= 0 {
		return 64
	}
	return c.Dim
}

func (c SGNSConfig) window() int {
	if c.Window <= 0 {
		return 5
	}
	return c.Window
}

func (c SGNSConfig) negatives() int {
	if c.Negatives <= 0 {
		return 5
	}
	return c.Negatives
}

func (c SGNSConfig) epochs() int {
	if c.Epochs <= 0 {
		return 2
	}
	return c.Epochs
}

func (c SGNSConfig) lr() float64 {
	if c.LearningRate <= 0 {
		return 0.025
	}
	return c.LearningRate
}

// batchNegatives is the negative count whose contexts train in one fused
// pass over six output rows (sgdContext); other counts train pair by pair.
// It is the default, so it is the count every caller in the repository uses.
const batchNegatives = 5

// TrainSGNS learns an embedding per node from the walk corpus. The noise
// distribution is degree^0.75, the word2vec unigram convention.
//
// Each skip-gram context (one center, one context node and its negatives)
// draws its negatives before any update. When Negatives is the default and
// the context's six output rows are distinct, the six SGD pairs run as one
// batch; otherwise they run pair by pair. Both paths give the same bits
// (DESIGN.md §7.2).
func TrainSGNS(g *graph.Graph, walks [][]graph.NodeID, cfg SGNSConfig) [][]float64 {
	n := g.NumNodes()
	dim, window, negs := cfg.dim(), cfg.window(), cfg.negatives()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Input and output vectors, initialized small-uniform as in word2vec,
	// in two flat n×dim slabs viewed as per-node rows.
	in, out := slabRows(n, dim), slabRows(n, dim)
	for _, row := range in {
		for d := range row {
			row[d] = (rng.Float64() - 0.5) / float64(dim)
		}
	}

	// Negative-sampling table over degree^0.75.
	table := buildNoiseTable(g, noiseTableSize(n))
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
	neg := make([]graph.NodeID, negs)

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
					// The draws never depend on the vectors, so drawing
					// them all first keeps the rng sequence.
					for k := range neg {
						neg[k] = table[rng.Intn(len(table))]
					}
					if negs == batchNegatives && distinctRows(ctx, neg) {
						sgdContext(in[center], out[ctx], out[neg[0]], out[neg[1]],
							out[neg[2]], out[neg[3]], out[neg[4]], lr)
						continue
					}
					// Positive update.
					sgdPair(in[center], out[ctx], 1, lr, grad)
					// Negative updates.
					for _, nk := range neg {
						if nk == ctx {
							continue
						}
						sgdPair(in[center], out[nk], 0, lr, grad)
					}
					// Apply the accumulated input gradient.
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

// slabRows returns n rows of dim zeros cut from one contiguous slab.
func slabRows(n, dim int) [][]float64 {
	slab := make([]float64, n*dim)
	rows := make([][]float64, n)
	for u := range rows {
		rows[u] = slab[u*dim : (u+1)*dim : (u+1)*dim]
	}
	return rows
}

// distinctRows reports whether ctx and the negatives name pairwise
// different nodes, so that no output row of the context is updated before
// another of its pairs reads it.
func distinctRows(ctx graph.NodeID, neg []graph.NodeID) bool {
	for k, a := range neg {
		if a == ctx {
			return false
		}
		for _, b := range neg[:k] {
			if a == b {
				return false
			}
		}
	}
	return true
}

// sgdPair performs one logistic SGD step for (input, output) with the given
// label, updating output in place and accumulating the input gradient.
func sgdPair(inVec, outVec []float64, label float64, lr float64, grad []float64) {
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

// sgdContext is sgdPair for one positive row p and five negative rows
// n0..n4, followed by the input update, with all six rows distinct. It gives
// the bits of the six sgdPair calls in that order: x does not change until
// the end, so every dot product can be taken first, each in ascending d
// with its own accumulator; the fused pass then adds each row's gradient
// term to gr in row order, reading the row before updating it. Fixed
// accumulators matter: the same batch looping over a variable number of
// rows was no faster than six sgdPair calls.
func sgdContext(x, p, n0, n1, n2, n3, n4 []float64, lr float64) {
	p, n0, n1, n2, n3, n4 = p[:len(x)], n0[:len(x)], n1[:len(x)], n2[:len(x)], n3[:len(x)], n4[:len(x)]
	var sp, s0, s1, s2, s3, s4 float64
	for d, xd := range x {
		sp += xd * p[d]
		s0 += xd * n0[d]
		s1 += xd * n1[d]
		s2 += xd * n2[d]
		s3 += xd * n3[d]
		s4 += xd * n4[d]
	}
	gp := (1 - sigmoid(sp)) * lr
	g0 := (0 - sigmoid(s0)) * lr
	g1 := (0 - sigmoid(s1)) * lr
	g2 := (0 - sigmoid(s2)) * lr
	g3 := (0 - sigmoid(s3)) * lr
	g4 := (0 - sigmoid(s4)) * lr
	for d, xd := range x {
		var gr float64
		gr += gp * p[d]
		p[d] += gp * xd
		gr += g0 * n0[d]
		n0[d] += g0 * xd
		gr += g1 * n1[d]
		n1[d] += g1 * xd
		gr += g2 * n2[d]
		n2[d] += g2 * xd
		gr += g3 * n3[d]
		n3[d] += g3 * xd
		gr += g4 * n4[d]
		n4[d] += g4 * xd
		x[d] += gr
	}
}

func sigmoid(x float64) float64 {
	// Clamp to avoid overflow; the gradient saturates anyway.
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// noiseTableSize is the noise table's length for n nodes: 2^17 slots, or
// eight per node past 16,384 nodes, so that shares keep their resolution
// as |V| grows.
func noiseTableSize(n int) int {
	return max(1<<17, 8*n)
}

// buildNoiseTable fills a sampling table of about size slots, each node
// holding slots in proportion to degree^0.75. Shares are floored, but every
// non-isolated node keeps at least one slot, so none drops out of negative
// sampling however small its share. It returns nil for an edgeless graph.
func buildNoiseTable(g *graph.Graph, size int) []graph.NodeID {
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
		if count == 0 && weights[u] > 0 {
			count = 1
		}
		for i := 0; i < count; i++ {
			table = append(table, graph.NodeID(u))
		}
	}
	return table
}

// Node2Vec runs walks and SGNS end to end with p = q = 1.
func Node2Vec(g *graph.Graph, wc WalkConfig, sc SGNSConfig) [][]float64 {
	return TrainSGNS(g, RandomWalks(g, wc), sc)
}
