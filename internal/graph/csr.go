package graph

import (
	"fmt"
	"math"

	"edgeshed/internal/par"
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
// strictly ascending by (U, V)), and builds the CSR arrays around it with
// fillCSR on up to workers workers (<= 0 selects GOMAXPROCS). The arrays do
// not depend on the worker count.
func newGraph(n int, edges []Edge, workers int) *Graph {
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
	fillCSR(&g.csr, edges, workers)
	return g
}

// serialBelow is the edge (or key) count under which fillCSR, radixSort
// and the packer's edge copy run on one worker (workersFor). On 2 CPUs,
// BenchmarkCSRBuild took 3.3–3.4 ms at one worker and 3.6–3.7 ms at two
// for 120,025 edges, where two workers scatter into the same
// cache-resident arrays, and 9.3–10.4 against 7.0–7.2 ms for 250,000
// edges; the sort crosses over lower, near 10^5 keys.
const serialBelow = 1 << 17

// workersFor resolves the worker count of a pass over m items: one under
// serialBelow, else workers (<= 0 selects GOMAXPROCS) capped at m.
func workersFor(workers, m int) int {
	if m < serialBelow {
		return 1
	}
	return par.Workers(workers, m)
}

// fillCSR is the fill step of every Graph (newGraph) and of the
// out-of-core packer's second pass, which is why the two produce
// byte-identical arrays. It overwrites all of c — Offsets (n+1 entries)
// and Targets, EdgeID and Mate (2·len(edges) each) — from edges, a
// canonical edge list over n nodes, on up to workers workers (<= 0 selects
// GOMAXPROCS; graphs under serialBelow edges use one).
//
// The arrays are the ones that placing the edges one at a time in id
// order would give, appending each edge to both endpoints' ranges. Node
// x's range then holds its in-edges (a, x), a < x, in id order — every
// one of them precedes the edges (x, b), because a < x — followed by its
// out-edges (x, b), the contiguous run of edges whose U is x. Each Targets
// range comes out sorted with no per-node sort. fillCSR computes every
// slot of that order directly, so that workers can place disjoint blocks
// of edges at once:
//
//   - Offsets[x] is first(x) + inBelow(x): first(x) edges have U < x (the
//     out-edges of the nodes before x, a prefix of the list) and
//     inBelow(x) edges have V < x.
//   - Edge i = (u, v)'s U-side slot is Offsets[u] + in(u) + (i − first(u)),
//     which is i + inBelow(u+1).
//   - Its V-side slot is Offsets[v] plus the number of edges before i with
//     V = v: those in earlier blocks, from per-worker counts, plus those
//     before i in its own block.
//
// Each worker writes only the two slots of each of its own edges, so the
// result does not depend on the worker count. Scratch is one int32 per node
// per worker, plus one per node.
func fillCSR(c *CSR, edges []Edge, workers int) {
	n, m := c.NumNodes(), len(edges)
	if m == 0 {
		clear(c.Offsets)
		return
	}
	workers = workersFor(workers, m)

	// Pass 1: per block, count each node's in-edges; and record first(x)
	// for the nodes whose out-edge runs start in the block (the nodes past
	// the last U belong to the last block).
	cur := make([][]int32, workers)
	first := make([]int32, n+1)
	par.Blocks(m, workers, func(w, lo, hi int) {
		cnt := make([]int32, n)
		prev := NodeID(-1)
		if lo > 0 {
			prev = edges[lo-1].U
		}
		for i, e := range edges[lo:hi] {
			cnt[e.V]++
			for ; prev < e.U; prev++ {
				first[prev+1] = int32(lo + i)
			}
		}
		if hi == m {
			for x := int(prev) + 1; x <= n; x++ {
				first[x] = int32(m)
			}
		}
		cur[w] = cnt
	})

	// Offsets, each block's first V-side slot of every node, and each
	// node's U-side base inBelow(x+1), kept in first[x].
	inBelow := int32(0)
	for x := 0; x < n; x++ {
		off := first[x] + inBelow
		c.Offsets[x] = off
		for _, cnt := range cur {
			k := cnt[x]
			cnt[x] = off
			off += k
		}
		inBelow = off - first[x]
		first[x] = inBelow
	}
	c.Offsets[n] = int32(2 * m)

	// Pass 2: place every edge's two slots and link them as mates.
	par.Blocks(m, workers, func(w, lo, hi int) {
		next := cur[w]
		for i, e := range edges[lo:hi] {
			id := int32(lo + i)
			su, sv := id+first[e.U], next[e.V]
			next[e.V]++
			c.Targets[su] = e.V
			c.Targets[sv] = e.U
			c.EdgeID[su] = id
			c.EdgeID[sv] = id
			c.Mate[su] = sv
			c.Mate[sv] = su
		}
	})
}
