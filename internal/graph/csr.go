package graph

import (
	"fmt"
	"math"
)

// CSR is the compressed-sparse-row form every Graph is stored in: the
// adjacency structure as contiguous arrays, so that traversal kernels
// (Brandes, BFS profiles, PageRank) index with integers instead of chasing
// per-node slices or hashing Edge keys. The paper's Phase 1 cost is
// dominated by exactly such kernels, and index-array adjacency is the
// SNAP-style substrate DESIGN.md §1 promises for this package.
//
// Each undirected edge occupies two slots, one in each endpoint's range, so
// len(Targets) == 2·NumEdges(). A "slot" is an index into Targets/EdgeID/Mate.
// Node u owns slots Offsets[u] to Offsets[u+1] (exclusive), and within that
// range Targets is sorted ascending; Graph.Neighbors(u) is that range.
//
// Graph.CSR returns the graph's own arrays, so the view is immutable and,
// like the Graph, safe for concurrent readers. All fields are exported for
// zero-overhead access in hot loops but must be treated as read-only. The
// endpoints of edge id i are Graph.Edges()[i].
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
	lo, hi := c.Offsets[u], c.Offsets[u+1]
	return c.Targets[lo:hi:hi]
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

// emptyCSR is the view of the zero Graph: no nodes, no slots, and the one
// offset every CSR has.
var emptyCSR = CSR{Offsets: []int32{0}}

// CSR returns the graph's own compressed-sparse-row arrays. Nothing is
// built or copied: the arrays are the graph.
func (g *Graph) CSR() *CSR {
	if g.csr.Offsets == nil {
		return &emptyCSR
	}
	return &g.csr
}

// csrBounds reports whether a graph with n nodes and m edges fits the CSR's
// int32 index space: node ids must fit NodeID, and the 2m half-edge slots
// must be addressable by int32 (Offsets, EdgeID and Mate are all int32).
// Without this check a graph just over the limit would silently wrap slot
// indices and corrupt the arrays; with it, oversized graphs fail loudly in
// newGraph and in the packed writers that reuse the check (WritePacked, the
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

// newGraph is the one Graph constructor: it takes ownership of edges, the
// canonical edge list of a graph over n nodes (U < V, endpoints in [0, n),
// strictly ascending by (U, V)), and builds the CSR arrays around it in two
// passes — count degrees, then place every edge with slotFill.
func newGraph(n int, edges []Edge) *Graph {
	m := len(edges)
	if err := csrBounds(n, m); err != nil {
		// Builder.Graph has no error path, and silently wrapping slot
		// indices is the one unacceptable outcome, so overflow is a loud
		// stop. Loaders check csrBounds first and return the error.
		panic(err)
	}
	g := &Graph{
		csr: CSR{
			Offsets: make([]int32, n+1),
			Targets: make([]NodeID, 2*m),
			EdgeID:  make([]int32, 2*m),
			Mate:    make([]int32, 2*m),
		},
		edges: edges,
	}
	for _, e := range edges {
		g.csr.Offsets[e.U+1]++
		g.csr.Offsets[e.V+1]++
	}
	fill := newSlotFill(&g.csr)
	for i, e := range edges {
		fill.place(int32(i), e)
	}
	return g
}

// slotFill places canonical edges into the slots of a CSR, one edge at a
// time in ascending edge id order. It is the fill step of every Graph
// (newGraph) and of the out-of-core packer's second pass, which is why the
// two produce byte-identical arrays.
//
// Placing edges in canonical (U, V) order appends each node's neighbors in
// ascending order: for node u, all partners a < u arrive first (from edges
// (a, u), globally sorted by a), then all partners b > u (from the
// contiguous (u, b) block, sorted by b). Every Targets range therefore
// comes out sorted with no per-node sort, and the two slots of an edge are
// linked as mates as they are written.
type slotFill struct {
	c   *CSR
	cur []int32 // cur[u] is the next free slot in u's range
}

// newSlotFill starts filling c, whose Offsets hold each node's degree
// shifted by one (Offsets[u+1] = deg(u), Offsets[0] = 0). It turns them
// into slot offsets in place.
func newSlotFill(c *CSR) slotFill {
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		c.Offsets[u+1] += c.Offsets[u]
	}
	cur := make([]int32, n)
	copy(cur, c.Offsets[:n])
	return slotFill{c: c, cur: cur}
}

// place fills the two slots of edge id, whose canonical endpoints are e.
func (f slotFill) place(id int32, e Edge) {
	su, sv := f.cur[e.U], f.cur[e.V]
	f.cur[e.U]++
	f.cur[e.V]++
	f.c.Targets[su] = e.V
	f.c.Targets[sv] = e.U
	f.c.EdgeID[su] = id
	f.c.EdgeID[sv] = id
	f.c.Mate[su] = sv
	f.c.Mate[sv] = su
}
