// Package graph provides the undirected-graph substrate used by every other
// package in this repository: one compressed-sparse-row representation with
// a canonical edge list, subgraph extraction, I/O and validation.
//
// Nodes are dense indices in [0, NumNodes). Loaders and builders remap
// arbitrary external identifiers onto this dense range. Edges are undirected
// and stored once in canonical (min, max) order; self-loops and parallel
// edges are rejected.
//
// # CSR arrays and edge ids
//
// Graph.Edges() defines a canonical edge numbering: edge i is Edges()[i].
// A Graph is stored as flat compressed-sparse-row arrays (see CSR) built
// once, by one constructor, when the graph is made; every slot carries its
// edge id (CSR.EdgeID), so algorithms that accumulate per-edge quantities —
// Brandes edge betweenness above all — can write edgeAcc[EdgeID[slot]] with
// pure array indexing instead of hashing a map[Edge] key per visit.
// Graph.CSR() returns those arrays themselves; Neighbors(u) is a sub-slice
// of them.
package graph

import (
	"fmt"
	"slices"
	"unsafe"
)

// NodeID identifies a node. Graphs built here always use dense ids in
// [0, NumNodes); 32 bits is enough for the billion-edge graphs the paper
// targets while halving adjacency memory versus int64.
type NodeID = int32

// Edge is an undirected edge. A canonical Edge has U <= V; use Canonical to
// normalize. Edge is comparable and therefore usable as a map key.
type Edge struct {
	U, V NodeID
}

// Canonical returns e with its endpoints ordered so that U <= V. Undirected
// edge equality is defined on canonical edges.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not u. It panics if u is not an
// endpoint of e, which always indicates a programming error in the caller.
func (e Edge) Other(u NodeID) NodeID {
	switch u {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", u, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an immutable undirected graph over dense node ids.
//
// Build one with a Builder, a generator from the gen subpackage, or a reader
// from io.go. The zero value is an empty graph with no nodes. Graph values
// are safe for concurrent readers; they are never mutated after construction.
type Graph struct {
	csr   CSR    // the adjacency; built by newGraph or mapped by loadPacked
	edges []Edge // canonical, sorted by (U, V); edge i owns the slots with EdgeID i
}

// NewFromEdges constructs a graph with n nodes and the given edges. Edges may
// appear in any orientation and order; duplicates (including reversed
// duplicates) and self-loops cause an error, as does any endpoint outside
// [0, n).
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustFromEdges is NewFromEdges that panics on error; intended for tests and
// literals of known-good shape.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.CSR().NumNodes() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return int(g.csr.Offsets[u+1] - g.csr.Offsets[u]) }

// Neighbors returns the sorted neighbor list of u: its range of the CSR's
// Targets array. The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.csr.Neighbors(u) }

// Edges returns the canonical edge list sorted by (U, V). The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether the undirected edge (u, v) exists. It runs in
// O(log deg) via binary search on the smaller adjacency list.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.CSR().EdgeIDOf(u, v) >= 0 }

// AvgDegree returns the average degree 2|E|/|V|, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.NumNodes())
}

// MaxDegree returns the largest degree in the graph, or 0 if there are no
// nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(NodeID(u)); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a fresh slice d with d[u] = Degree(u).
func (g *Graph) Degrees() []int {
	d := make([]int, g.NumNodes())
	for u := range d {
		d[u] = g.Degree(NodeID(u))
	}
	return d
}

// Clone returns a deep copy of g. Because graphs are immutable this is only
// needed when a caller wants to hand ownership across an API that might
// outlive g's backing arrays — a packed graph's mapping above all.
func (g *Graph) Clone() *Graph {
	return newGraph(g.NumNodes(), slices.Clone(g.edges), 0)
}

// Subgraph returns a new graph over the same node set containing exactly the
// given edges. Each edge must exist in g; orientation is ignored. Duplicate
// edges in the input cause an error.
func (g *Graph) Subgraph(edges []Edge) (*Graph, error) {
	c := g.CSR()
	ids := make([]int32, len(edges))
	for i, e := range edges {
		if ids[i] = c.EdgeIDOf(e.U, e.V); ids[i] < 0 {
			return nil, fmt.Errorf("graph: subgraph edge %v not present in parent", e)
		}
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge %v", g.edges[ids[i]])
		}
	}
	return g.SubgraphByIDs(ids)
}

// SubgraphByIDs returns a new graph over the same node set containing
// exactly the edges with the given canonical ids — positions in Edges() —
// which must be sorted ascending and duplicate-free. It is the id-native
// fast path behind the shedding reducers: because the canonical edge list is
// sorted by (U, V), selecting ascending ids yields the subgraph's canonical
// edge list already in order, ready for the constructor with no hashing and
// no re-sort.
func (g *Graph) SubgraphByIDs(ids []int32) (*Graph, error) {
	edges := make([]Edge, len(ids))
	prev := int32(-1)
	for i, id := range ids {
		if id <= prev {
			return nil, fmt.Errorf("graph: subgraph edge ids not ascending at position %d (%d after %d)", i, id, prev)
		}
		if int(id) >= len(g.edges) {
			return nil, fmt.Errorf("graph: subgraph edge id %d outside [0,%d)", id, len(g.edges))
		}
		prev = id
		edges[i] = g.edges[id]
	}
	return newGraph(g.NumNodes(), edges, 0), nil
}

// InducedSubgraph returns the subgraph induced by the given node set: the
// same node-id space with exactly the edges whose endpoints are both in the
// set. Duplicate nodes in the input are tolerated.
func (g *Graph) InducedSubgraph(nodes []NodeID) (*Graph, error) {
	in := make([]bool, g.NumNodes())
	for _, u := range nodes {
		if u < 0 || int(u) >= g.NumNodes() {
			return nil, fmt.Errorf("graph: induced node %d outside [0,%d)", u, g.NumNodes())
		}
		in[u] = true
	}
	var ids []int32
	for i, e := range g.edges {
		if in[e.U] && in[e.V] {
			ids = append(ids, int32(i))
		}
	}
	return g.SubgraphByIDs(ids)
}

// Density returns |E| / C(|V|, 2), the fraction of possible edges present;
// 0 for graphs with fewer than two nodes.
func (g *Graph) Density() float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	return float64(g.NumEdges()) / (float64(n) * float64(n-1) / 2)
}

// EdgeSet returns the edges as a set keyed by canonical edge. The map is
// freshly allocated on every call.
func (g *Graph) EdgeSet() map[Edge]struct{} {
	s := make(map[Edge]struct{}, len(g.edges))
	for _, e := range g.edges {
		s[e] = struct{}{}
	}
	return s
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.NumNodes(), g.NumEdges())
}

// Bytes is the resident size of the graph's arrays: the CSR's offsets (4
// bytes per node), its two per-slot arrays (16 bytes per edge), the
// canonical edge list (8 bytes per edge) and the Graph header. It quantifies
// the storage saving of a reduction — the paper's first motivation —
// without depending on the runtime's allocator.
func (g *Graph) Bytes() int64 {
	c := g.CSR()
	slots := len(c.Targets) + len(c.EdgeID)
	return int64(unsafe.Sizeof(*g)) + 4*int64(len(c.Offsets)+slots) + int64(unsafe.Sizeof(Edge{}))*int64(len(g.edges))
}
