package matching

import (
	"fmt"
	"sort"

	"edgeshed/internal/graph"
)

// EdgeOrder selects the scan order for the greedy b-matching. The paper's
// Algorithm 2 scans edges in input order; the alternatives exist for the
// ablation study in DESIGN.md §5.5.
type EdgeOrder int

const (
	// InputOrder scans g.Edges() as stored (sorted by endpoint ids), the
	// literal reading of Algorithm 2 lines 4-7.
	InputOrder EdgeOrder = iota
	// ScarceFirst scans edges by ascending minimum endpoint capacity, giving
	// constrained nodes first pick of their edges.
	ScarceFirst
	// DenseFirst scans edges by descending minimum endpoint capacity.
	DenseFirst
)

// String implements fmt.Stringer.
func (o EdgeOrder) String() string {
	switch o {
	case InputOrder:
		return "input"
	case ScarceFirst:
		return "scarce-first"
	case DenseFirst:
		return "dense-first"
	}
	return fmt.Sprintf("EdgeOrder(%d)", int(o))
}

// BMatching is the result of a greedy maximal b-matching.
type BMatching struct {
	// IDs are the matched edges' canonical ids — positions in g.Edges() —
	// in selection order; callers read an edge as g.Edges()[id].
	IDs []int32
	// Degrees[u] is u's degree within the matching.
	Degrees []int
}

// GreedyBMatching computes a maximal b-matching of g under the capacity
// vector caps: it scans edges in the given order and keeps edge (u, v)
// whenever both endpoints are below capacity (Algorithm 2, lines 4-7;
// Hougardy's linear-time 1/2-approximation of maximum b-matching). caps must
// have one entry per node; negative capacities are rejected.
func GreedyBMatching(g *graph.Graph, caps []int, order EdgeOrder) (*BMatching, error) {
	if len(caps) != g.NumNodes() {
		return nil, fmt.Errorf("matching: %d capacities for %d nodes", len(caps), g.NumNodes())
	}
	// Node u keeps at most min(caps[u], deg(u)) edges and every edge has two
	// ends, so half the sum bounds the matching's size; it never exceeds |E|.
	total := 0
	for u, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("matching: negative capacity %d at node %d", c, u)
		}
		total += min(c, g.Degree(graph.NodeID(u)))
	}
	edges := g.Edges()
	m := &BMatching{IDs: make([]int32, 0, total/2), Degrees: make([]int, g.NumNodes())}
	// scan is the permuted id sequence; nil scans ids in input order.
	var scan []int32
	if order != InputOrder {
		// Precompute each edge's key once: the stable sort performs
		// O(m log m) comparisons, and recomputing min(caps) per comparison
		// doubles its memory traffic.
		key := make([]int32, len(edges))
		scan = make([]int32, len(edges))
		for id, e := range edges {
			key[id] = int32(min(caps[e.U], caps[e.V]))
			scan[id] = int32(id)
		}
		sort.SliceStable(scan, func(i, j int) bool {
			if order == ScarceFirst {
				return key[scan[i]] < key[scan[j]]
			}
			return key[scan[i]] > key[scan[j]]
		})
	}
	for i, e := range edges {
		id := int32(i)
		if scan != nil {
			id = scan[i]
			e = edges[id]
		}
		if m.Degrees[e.U] < caps[e.U] && m.Degrees[e.V] < caps[e.V] {
			m.IDs = append(m.IDs, id)
			m.Degrees[e.U]++
			m.Degrees[e.V]++
		}
	}
	return m, nil
}

// VerifyMaximal reports whether m is a maximal b-matching of g under caps:
// every matched id names a distinct edge of g, both capacities hold, and no
// unmatched edge of g could be added without violating one. It is O(|E|)
// and intended for tests.
func (m *BMatching) VerifyMaximal(g *graph.Graph, caps []int) error {
	edges := g.Edges()
	in := make([]bool, len(edges))
	deg := make([]int, g.NumNodes())
	for _, id := range m.IDs {
		if id < 0 || int(id) >= len(edges) || in[id] {
			return fmt.Errorf("matching: matched id %d outside [0,%d) or repeated", id, len(edges))
		}
		in[id] = true
		e := edges[id]
		deg[e.U]++
		deg[e.V]++
	}
	for u := range deg {
		if deg[u] != m.Degrees[u] {
			return fmt.Errorf("matching: recorded degree %d != actual %d at node %d", m.Degrees[u], deg[u], u)
		}
		if deg[u] > caps[u] {
			return fmt.Errorf("matching: node %d degree %d exceeds capacity %d", u, deg[u], caps[u])
		}
	}
	for i, e := range edges {
		if in[i] {
			continue
		}
		if deg[e.U] < caps[e.U] && deg[e.V] < caps[e.V] {
			return fmt.Errorf("matching: not maximal, edge %v is addable", e)
		}
	}
	return nil
}
