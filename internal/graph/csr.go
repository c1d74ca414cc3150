package graph

import (
	"fmt"
	"math"
)

// CSR is a compressed-sparse-row view of a Graph: the adjacency structure
// flattened into contiguous arrays so that traversal kernels (Brandes, BFS
// profiles, PageRank) index with integers instead of chasing per-node slices
// or hashing Edge keys. The paper's Phase 1 cost is dominated by exactly such
// kernels, and index-array adjacency is the SNAP-style substrate DESIGN.md §1
// promises for this package.
//
// Each undirected edge occupies two slots, one in each endpoint's range, so
// len(Targets) == 2·NumEdges(). A "slot" is an index into Targets/EdgeID/Mate.
// Node u owns slots Offsets[u] to Offsets[u+1] (exclusive), and within that
// range Targets is sorted ascending — the same order as Graph.Neighbors(u).
//
// The view is built once per graph, cached, and immutable; like the Graph it
// is derived from, it is safe for concurrent readers. All fields are exported
// for zero-overhead access in hot loops but must be treated as read-only.
type CSR struct {
	// Offsets has length NumNodes()+1. Node u's adjacency slots are
	// Offsets[u] .. Offsets[u+1]-1; Offsets[NumNodes()] == 2·NumEdges().
	Offsets []int32
	// Targets[s] is the neighbor occupying slot s.
	Targets []NodeID
	// EdgeID[s] is the canonical edge id of slot s: the position in
	// Graph.Edges() of the undirected edge the slot belongs to. The two
	// slots of an edge share one id, so per-edge accumulators indexed by
	// EdgeID are aligned with Graph.Edges() with no map lookup and no
	// Canonical() call.
	EdgeID []int32
	// Mate[s] is the reverse slot of s: if slot s sits in u's range and
	// targets w, then Mate[s] sits in w's range and targets u, with
	// EdgeID[s] == EdgeID[Mate[s]] and Mate[Mate[s]] == s.
	Mate []int32
	// EdgeU and EdgeV are the canonical endpoints of each edge, indexed by
	// edge id: EdgeU[i] <= EdgeV[i] and Graph.Edges()[i] == {EdgeU[i],
	// EdgeV[i]}. They are the structure-of-arrays twin of Graph.Edges() for
	// kernels whose inner loops index endpoints by edge id (the CRR swap
	// loop, targeted repair) and want no Edge struct values in flight.
	EdgeU, EdgeV []NodeID
}

// NumNodes returns the number of nodes in the underlying graph.
func (c *CSR) NumNodes() int { return len(c.Offsets) - 1 }

// NumSlots returns the number of adjacency slots, 2·NumEdges().
func (c *CSR) NumSlots() int { return len(c.Targets) }

// Degree returns the degree of node u.
func (c *CSR) Degree(u NodeID) int32 { return c.Offsets[u+1] - c.Offsets[u] }

// Neighbors returns u's slice of the Targets array (sorted ascending,
// identical contents to Graph.Neighbors(u)). Read-only.
func (c *CSR) Neighbors(u NodeID) []NodeID {
	return c.Targets[c.Offsets[u]:c.Offsets[u+1]]
}

// EdgeIDOf returns the canonical edge id of the undirected edge (u, v), or
// -1 when the edge (or either endpoint) is absent. It binary-searches the
// smaller endpoint's sorted slot range, so the lookup is O(log deg) over
// contiguous arrays — the flat replacement for hashing a map[Edge] key.
func (c *CSR) EdgeIDOf(u, v NodeID) int32 {
	if u < 0 || v < 0 || int(u) >= c.NumNodes() || int(v) >= c.NumNodes() || u == v {
		return -1
	}
	if c.Degree(u) > c.Degree(v) {
		u, v = v, u
	}
	lo, hi := int(c.Offsets[u]), int(c.Offsets[u+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Targets[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(c.Offsets[u+1]) && c.Targets[lo] == v {
		return c.EdgeID[lo]
	}
	return -1
}

// CSR returns the graph's compressed-sparse-row view, building it on first
// use and caching it for the graph's lifetime. Concurrent callers are safe:
// the build happens exactly once.
func (g *Graph) CSR() *CSR {
	g.csrOnce.Do(func() { g.csr = buildCSR(g) })
	return g.csr
}

// csrBounds reports whether a graph with n nodes and m edges fits the CSR's
// int32 index space: node ids must fit NodeID, and the 2m half-edge slots
// must be addressable by int32 (Offsets, EdgeID and Mate are all int32).
// Without this check a graph just over the limit would silently wrap slot
// indices and corrupt the view; with it, oversized graphs fail loudly here
// and in the packed writers that reuse the check (WritePacked, the
// external-sort packer).
func csrBounds(n, m int) error {
	if int64(n) > math.MaxInt32 {
		return fmt.Errorf("graph: %d nodes overflow int32 node ids (max %d)", n, math.MaxInt32)
	}
	if int64(m) > math.MaxInt32/2 {
		return fmt.Errorf("graph: %d edges need %d CSR slots, overflowing int32 slot indices (max %d edges)",
			m, 2*int64(m), math.MaxInt32/2)
	}
	return nil
}

// buildCSR flattens g's adjacency in one pass over the sorted edge list.
//
// Because Edges() is sorted by (U, V) with U < V, scanning it in order
// appends each node's neighbors in ascending order: for node u, all partners
// a < u arrive first (from edges (a, u), globally sorted by a), then all
// partners b > u (from the contiguous (u, b) block, sorted by b). The
// resulting Targets ranges therefore match Neighbors() exactly, and the two
// slots of edge i are linked as mates as they are written.
func buildCSR(g *Graph) *CSR {
	n := g.NumNodes()
	m := g.NumEdges()
	if err := csrBounds(n, m); err != nil {
		// CSR() has no error path (the view is built lazily inside cached
		// accessors); corrupting indices silently is the one unacceptable
		// outcome, so overflow is a loud stop.
		panic(err)
	}
	c := &CSR{
		Offsets: make([]int32, n+1),
		Targets: make([]NodeID, 2*m),
		EdgeID:  make([]int32, 2*m),
		Mate:    make([]int32, 2*m),
		EdgeU:   make([]NodeID, m),
		EdgeV:   make([]NodeID, m),
	}
	for _, e := range g.edges {
		c.Offsets[e.U+1]++
		c.Offsets[e.V+1]++
	}
	for u := 0; u < n; u++ {
		c.Offsets[u+1] += c.Offsets[u]
	}
	// cur[u] is the next free slot in u's range during the fill pass.
	cur := make([]int32, n)
	copy(cur, c.Offsets[:n])
	for i, e := range g.edges {
		su, sv := cur[e.U], cur[e.V]
		cur[e.U]++
		cur[e.V]++
		c.Targets[su] = e.V
		c.Targets[sv] = e.U
		c.EdgeID[su] = int32(i)
		c.EdgeID[sv] = int32(i)
		c.Mate[su] = sv
		c.Mate[sv] = su
		c.EdgeU[i] = e.U
		c.EdgeV[i] = e.V
	}
	return c
}
