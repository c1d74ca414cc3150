// Package core implements the paper's contribution: two vertex-degree
// preserving edge-shedding algorithms that reduce an undirected graph
// G = (V, E) to a subgraph with roughly p·|E| edges while minimizing the
// total degree discrepancy
//
//	Δ = Σ_{u ∈ V} |deg_G'(u) − p·deg_G(u)|.
//
// CRR (Centrality Ranking with Rewiring, Algorithm 1) keeps the
// highest-betweenness edges and then locally rewires to shrink Δ. BM2
// (B-Matching with Bipartite Matching, Algorithms 2–3) rounds the expected
// degrees into b-matching capacities and corrects the rounding error with a
// gain-weighted bipartite matching. Random uniform edge sampling is provided
// as the natural baseline.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"edgeshed/internal/graph"
)

// Reducer reduces a graph to an edge-preservation ratio p ∈ (0, 1).
type Reducer interface {
	// Name returns the algorithm's short name as used in the paper's tables
	// ("CRR", "BM2", ...).
	Name() string
	// Reduce sheds edges from g, targeting |E'| ≈ p·|E|.
	Reduce(g *graph.Graph, p float64) (*Result, error)
}

// Result is a reduced graph along with everything needed to evaluate it.
type Result struct {
	// Original is the input graph G.
	Original *graph.Graph
	// Reduced is the reduced graph G' over the same node ids.
	Reduced *graph.Graph
	// P is the edge preservation ratio used.
	P float64
}

// checkP validates the edge-preservation ratio shared by all reducers.
func checkP(p float64) error {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return fmt.Errorf("core: edge preservation ratio p = %v outside (0, 1)", p)
	}
	return nil
}

// targetEdges returns [P], the nearest integer to p·|E| (Algorithm 1 line 2;
// the paper writes [P] for rounding).
func targetEdges(g *graph.Graph, p float64) int {
	return int(math.Round(p * float64(g.NumEdges())))
}

// newResult assembles a Result from a selected edge set.
func newResult(g *graph.Graph, p float64, edges []graph.Edge) (*Result, error) {
	sub, err := g.Subgraph(edges)
	if err != nil {
		return nil, err
	}
	return &Result{Original: g, Reduced: sub, P: p}, nil
}

// newResultIDs assembles a Result from selected canonical edge ids,
// overwriting ids with the same ids in ascending order. It produces exactly
// the graph newResult would for the same edge set, through the id-native
// Graph.SubgraphByIDs fast path — no edge hashing or re-sorting. The order
// comes from a bitset over the |E| canonical ids, O(|E|) where sorting
// the ids would cost O(|ids| log |ids|); an id outside [0, |E|) or
// selected twice is an error.
func newResultIDs(g *graph.Graph, p float64, ids []int32) (*Result, error) {
	m := g.NumEdges()
	set := make([]uint64, (m+63)/64)
	for _, id := range ids {
		if id < 0 || int(id) >= m {
			return nil, fmt.Errorf("core: selected edge id %d outside [0,%d)", id, m)
		}
		w, bit := id>>6, uint64(1)<<(id&63)
		if set[w]&bit != 0 {
			return nil, fmt.Errorf("core: edge id %d selected twice", id)
		}
		set[w] |= bit
	}
	i := 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ids[i] = int32(w<<6 + bits.TrailingZeros64(word))
			i++
		}
	}
	sub, err := g.SubgraphByIDs(ids)
	if err != nil {
		return nil, err
	}
	return &Result{Original: g, Reduced: sub, P: p}, nil
}

// ExpectedDegree returns E(deg_G'(u)) = p·deg_G(u) (Equation 1).
func (r *Result) ExpectedDegree(u graph.NodeID) float64 {
	return r.P * float64(r.Original.Degree(u))
}

// Dis returns dis(u) = deg_G'(u) − E(deg_G'(u)) (Equation 3).
func (r *Result) Dis(u graph.NodeID) float64 {
	return float64(r.Reduced.Degree(u)) - r.ExpectedDegree(u)
}

// Delta returns Δ = Σ_u |dis(u)| (Equation 4), the paper's reduction-quality
// objective.
func (r *Result) Delta() float64 {
	var sum float64
	for u := 0; u < r.Original.NumNodes(); u++ {
		sum += math.Abs(r.Dis(graph.NodeID(u)))
	}
	return sum
}

// ActiveNodes returns |V'|: the number of nodes with at least one incident
// edge in the reduced graph. The paper's figures normalize by this count.
func (r *Result) ActiveNodes() int {
	n := 0
	for u := 0; u < r.Reduced.NumNodes(); u++ {
		if r.Reduced.Degree(graph.NodeID(u)) > 0 {
			n++
		}
	}
	return n
}

// AvgDelta returns Δ/|V'| ("Average delta" in Figure 4), or 0 when the
// reduced graph has no active nodes.
func (r *Result) AvgDelta() float64 {
	a := r.ActiveNodes()
	if a == 0 {
		return 0
	}
	return r.Delta() / float64(a)
}

// AvgDisPerNode returns Δ/|V|: the average absolute degree discrepancy over
// the full node set, the quantity bounded by Theorems 1 and 2.
func (r *Result) AvgDisPerNode() float64 {
	if r.Original.NumNodes() == 0 {
		return 0
	}
	return r.Delta() / float64(r.Original.NumNodes())
}

// CRRBound returns Theorem 1's upper bound on the average absolute
// discrepancy for CRR: 4p(1−p)|E|/|V|.
func CRRBound(g *graph.Graph, p float64) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 4 * p * (1 - p) * float64(g.NumEdges()) / float64(g.NumNodes())
}

// BM2Bound returns Theorem 2's upper bound on the average absolute
// discrepancy for BM2: 1/2 + (1−p)|E|/|V|.
func BM2Bound(g *graph.Graph, p float64) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 0.5 + (1-p)*float64(g.NumEdges())/float64(g.NumNodes())
}
