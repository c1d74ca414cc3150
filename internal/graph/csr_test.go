package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestCSRMatchesAdjacency(t *testing.T) {
	g := microTestGraph(t, 200, 900)
	c := g.CSR()
	if c.NumNodes() != g.NumNodes() {
		t.Fatalf("CSR nodes = %d, want %d", c.NumNodes(), g.NumNodes())
	}
	if c.NumSlots() != 2*g.NumEdges() {
		t.Fatalf("CSR slots = %d, want %d", c.NumSlots(), 2*g.NumEdges())
	}
	if got := int(c.Offsets[g.NumNodes()]); got != 2*g.NumEdges() {
		t.Fatalf("final offset = %d, want %d", got, 2*g.NumEdges())
	}
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.Neighbors(NodeID(u))
		csr := c.Neighbors(NodeID(u))
		if int(c.Degree(NodeID(u))) != len(adj) {
			t.Fatalf("node %d: CSR degree %d, want %d", u, c.Degree(NodeID(u)), len(adj))
		}
		if len(csr) != len(adj) {
			t.Fatalf("node %d: CSR range len %d, want %d", u, len(csr), len(adj))
		}
		for i := range adj {
			if csr[i] != adj[i] {
				t.Fatalf("node %d slot %d: CSR target %d, adj %d", u, i, csr[i], adj[i])
			}
		}
	}
}

func TestCSREdgeIDs(t *testing.T) {
	g := microTestGraph(t, 150, 600)
	c := g.CSR()
	edges := g.Edges()
	// Each edge id must appear on exactly two slots, one in each endpoint's
	// range, with endpoints matching the canonical edge.
	count := make([]int, g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		for s := c.Offsets[u]; s < c.Offsets[u+1]; s++ {
			id := c.EdgeID[s]
			count[id]++
			w := c.Targets[s]
			e := edges[id]
			if (Edge{NodeID(u), w}).Canonical() != e {
				t.Fatalf("slot %d: endpoints (%d,%d) do not match edge %v (id %d)", s, u, w, e, id)
			}
		}
	}
	for id, n := range count {
		if n != 2 {
			t.Fatalf("edge %d appears on %d slots, want 2", id, n)
		}
	}
}

func TestCSREdgeIDOf(t *testing.T) {
	g := microTestGraph(t, 120, 400)
	c := g.CSR()
	// Every present edge resolves to its id, in both orientations.
	for i, e := range g.Edges() {
		if got := c.EdgeIDOf(e.U, e.V); got != int32(i) {
			t.Fatalf("EdgeIDOf(%v) = %d, want %d", e, got, i)
		}
		if got := c.EdgeIDOf(e.V, e.U); got != int32(i) {
			t.Fatalf("EdgeIDOf reversed (%v) = %d, want %d", e, got, i)
		}
	}
	// Absent pairs, self-loops and out-of-range endpoints return -1.
	rng := rand.New(rand.NewSource(9))
	for tries := 0; tries < 200; tries++ {
		u := NodeID(rng.Intn(g.NumNodes()))
		v := NodeID(rng.Intn(g.NumNodes()))
		if got, want := c.EdgeIDOf(u, v) >= 0, g.HasEdge(u, v); got != want {
			t.Fatalf("EdgeIDOf(%d,%d) found=%v, HasEdge=%v", u, v, got, want)
		}
	}
	for _, bad := range [][2]NodeID{{3, 3}, {-1, 2}, {2, -1}, {0, NodeID(g.NumNodes())}} {
		if got := c.EdgeIDOf(bad[0], bad[1]); got != -1 {
			t.Errorf("EdgeIDOf(%d,%d) = %d, want -1", bad[0], bad[1], got)
		}
	}
}

func TestCSRCachedAndConcurrent(t *testing.T) {
	g := microTestGraph(t, 100, 300)
	var wg sync.WaitGroup
	views := make([]*CSR, 8)
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = g.CSR()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(views); i++ {
		if views[i] != views[0] {
			t.Fatal("concurrent CSR() calls returned distinct views")
		}
	}
	if g.CSR() != views[0] {
		t.Fatal("CSR() returned a different view on a later call")
	}
}

func TestCSREmptyAndEdgelessGraphs(t *testing.T) {
	var empty Graph
	c := empty.CSR()
	if c.NumNodes() != 0 || c.NumSlots() != 0 {
		t.Errorf("empty graph CSR: nodes=%d slots=%d", c.NumNodes(), c.NumSlots())
	}
	iso := MustFromEdges(3, nil)
	c = iso.CSR()
	if c.NumNodes() != 3 || c.NumSlots() != 0 {
		t.Errorf("edgeless graph CSR: nodes=%d slots=%d", c.NumNodes(), c.NumSlots())
	}
	for u := NodeID(0); u < 3; u++ {
		if c.Degree(u) != 0 || len(c.Neighbors(u)) != 0 {
			t.Errorf("isolated node %d: degree %d", u, c.Degree(u))
		}
	}
}

// TestCSRCloneIndependence checks a clone owns its own arrays, never
// aliased through Clone.
func TestCSRCloneIndependence(t *testing.T) {
	g := microTestGraph(t, 50, 120)
	orig := g.CSR()
	clone := g.Clone()
	if clone.CSR() == orig {
		t.Fatal("clone shares the parent's CSR view")
	}
}

// microTestGraph builds a reusable random test graph.
func microTestGraph(t *testing.T, n, m int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(m)))
	bld := NewBuilder(n)
	for bld.NumEdges() < m {
		bld.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return bld.Graph()
}

// serialFill is the one-edge-at-a-time fill that fillCSR must reproduce:
// count degrees, prefix them into offsets, then place the edges in id
// order at each endpoint's next free slot.
func serialFill(n int, edges []Edge) CSR {
	m := len(edges)
	c := CSR{Offsets: make([]int32, n+1), Targets: make([]NodeID, 2*m), EdgeID: make([]int32, 2*m)}
	for _, e := range edges {
		c.Offsets[e.U+1]++
		c.Offsets[e.V+1]++
	}
	for u := 0; u < n; u++ {
		c.Offsets[u+1] += c.Offsets[u]
	}
	cur := slices.Clone(c.Offsets[:n])
	for i, e := range edges {
		su, sv := cur[e.U], cur[e.V]
		cur[e.U]++
		cur[e.V]++
		c.Targets[su], c.Targets[sv] = e.V, e.U
		c.EdgeID[su], c.EdgeID[sv] = int32(i), int32(i)
	}
	return c
}

// TestFillCSRMatchesSerialFill pins the parallel fill to the serial one at
// several worker counts, on shapes that stress the block split: one U-run
// spanning every block (a star), every in-edge on one node, isolated nodes
// before, between and after the edges, and graphs on both sides of
// serialBelow. Every array entry must be overwritten, so the output starts
// out as garbage.
func TestFillCSRMatchesSerialFill(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big := serialBelow + 5000
	shapes := map[string]*Graph{
		"tiny":     MustFromEdges(5, []Edge{{1, 3}, {0, 3}, {3, 4}}),
		"path":     microTestGraph(t, 50, 49),
		"random":   microTestGraph(t, 4000, 2*serialBelow),
		"edgeless": MustFromEdges(7, nil),
	}
	star, rstar, sparse := NewBuilder(big+1), NewBuilder(big+1), NewBuilder(3*big)
	for x := 1; x <= big; x++ {
		star.TryAddEdge(0, NodeID(x))
		rstar.TryAddEdge(NodeID(x-1), NodeID(big))
	}
	for sparse.NumEdges() < big {
		// Edges only among the middle third of the ids.
		sparse.TryAddEdge(NodeID(big+rng.Intn(big)), NodeID(big+rng.Intn(big)))
	}
	shapes["star"], shapes["reverse-star"], shapes["isolated-ends"] = star.Graph(), rstar.Graph(), sparse.Graph()
	for name, g := range shapes {
		n, edges := g.NumNodes(), g.Edges()
		want := serialFill(n, edges)
		for _, workers := range []int{1, 2, 3, 8} {
			m := len(edges)
			got := CSR{Offsets: make([]int32, n+1), Targets: make([]NodeID, 2*m), EdgeID: make([]int32, 2*m)}
			for _, a := range [][]int32{got.Offsets, got.Targets, got.EdgeID} {
				for i := range a {
					a[i] = -7
				}
			}
			fillCSR(&got, edges, workers)
			for arr, pair := range map[string][2][]int32{
				"Offsets": {got.Offsets, want.Offsets},
				"Targets": {got.Targets, want.Targets},
				"EdgeID":  {got.EdgeID, want.EdgeID},
			} {
				if !slices.Equal(pair[0], pair[1]) {
					i := 0
					for i < len(pair[1]) && pair[0][i] == pair[1][i] {
						i++
					}
					t.Fatalf("%s, %d workers: %s differs from the serial fill at %d", name, workers, arr, i)
				}
			}
		}
	}
}
