package graph

import (
	"math/rand"
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

func TestCSREdgeIDsAndMates(t *testing.T) {
	g := microTestGraph(t, 150, 600)
	c := g.CSR()
	edges := g.Edges()
	// Each edge id must appear on exactly two slots, mates of each other,
	// with endpoints matching the canonical edge.
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
			m := c.Mate[s]
			if c.Mate[m] != s {
				t.Fatalf("slot %d: Mate not involutive (mate %d, its mate %d)", s, m, c.Mate[m])
			}
			if c.Targets[m] != NodeID(u) {
				t.Fatalf("slot %d: mate targets %d, want %d", s, c.Targets[m], u)
			}
			if c.EdgeID[m] != id {
				t.Fatalf("slot %d: mate edge id %d, want %d", s, c.EdgeID[m], id)
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
