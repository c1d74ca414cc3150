package graph

import (
	"math/rand"
	"testing"
)

// path5 returns the path graph 0-1-2-3-4.
func path5() *Graph {
	return MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
}

func TestEdgeCanonical(t *testing.T) {
	if got := (Edge{3, 1}).Canonical(); got != (Edge{1, 3}) {
		t.Errorf("Canonical(3,1) = %v, want (1,3)", got)
	}
	if got := (Edge{1, 3}).Canonical(); got != (Edge{1, 3}) {
		t.Errorf("Canonical(1,3) = %v, want (1,3)", got)
	}
	if got := (Edge{2, 2}).Canonical(); got != (Edge{2, 2}) {
		t.Errorf("Canonical(2,2) = %v, want (2,2)", got)
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{2, 7}
	if got := e.Other(2); got != 7 {
		t.Errorf("Other(2) = %d, want 7", got)
	}
	if got := e.Other(7); got != 2 {
		t.Errorf("Other(7) = %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("zero Graph: |V|=%d |E|=%d, want 0, 0", g.NumNodes(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Errorf("zero Graph AvgDegree = %v, want 0", g.AvgDegree())
	}
	if g.MaxDegree() != 0 {
		t.Errorf("zero Graph MaxDegree = %v, want 0", g.MaxDegree())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("zero Graph invalid: %v", err)
	}
}

func TestPathGraphBasics(t *testing.T) {
	g := path5()
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	wantDeg := []int{1, 2, 2, 2, 1}
	for u, want := range wantDeg {
		if got := g.Degree(NodeID(u)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", u, got, want)
		}
	}
	if got := g.AvgDegree(); got != 1.6 {
		t.Errorf("AvgDegree = %v, want 1.6", got)
	}
	if got := g.MaxDegree(); got != 2 {
		t.Errorf("MaxDegree = %v, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHasEdge(t *testing.T) {
	g := path5()
	cases := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true},
		{0, 2, false}, {4, 0, false},
		{0, 0, false},         // self-loop never present
		{-1, 2, false},        // out of range low
		{0, 99, false},        // out of range high
		{NodeID(5), 0, false}, // just past end
		{3, NodeID(4), true},  // last edge
		{NodeID(4), 3, true},  // reversed last edge
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := MustFromEdges(4, []Edge{{3, 1}, {1, 0}, {2, 1}})
	got := g.Neighbors(1)
	want := []NodeID{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(1) = %v, want %v", got, want)
		}
	}
}

func TestNewFromEdgesErrors(t *testing.T) {
	if _, err := NewFromEdges(3, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewFromEdges(3, []Edge{{0, 3}}); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := NewFromEdges(3, []Edge{{0, 1}, {1, 0}}); err == nil {
		t.Error("reversed duplicate accepted")
	}
	if _, err := NewFromEdges(3, []Edge{{0, 1}, {0, 1}}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path5()
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone shape mismatch: %v vs %v", c, g)
	}
	// Mutate the clone's backing arrays; the original must be unaffected.
	c.csr.Targets[0] = 99
	c.edges[0] = Edge{9, 9}
	if g.csr.Targets[0] == 99 || g.edges[0] == (Edge{9, 9}) {
		t.Error("Clone shares memory with original")
	}
}

func TestSubgraph(t *testing.T) {
	g := path5()
	sub, err := g.Subgraph([]Edge{{1, 0}, {2, 3}})
	if err != nil {
		t.Fatalf("Subgraph: %v", err)
	}
	if sub.NumNodes() != 5 {
		t.Errorf("subgraph keeps node set: |V| = %d, want 5", sub.NumNodes())
	}
	if sub.NumEdges() != 2 {
		t.Errorf("subgraph |E| = %d, want 2", sub.NumEdges())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(2, 3) || sub.HasEdge(1, 2) {
		t.Errorf("subgraph has wrong edges: %v", sub.Edges())
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subgraph invalid: %v", err)
	}
}

func TestSubgraphRejectsForeignEdge(t *testing.T) {
	g := path5()
	if _, err := g.Subgraph([]Edge{{0, 4}}); err == nil {
		t.Error("foreign edge accepted into subgraph")
	}
}

func TestEdgeSet(t *testing.T) {
	g := path5()
	s := g.EdgeSet()
	if len(s) != 4 {
		t.Fatalf("EdgeSet size = %d, want 4", len(s))
	}
	for _, e := range g.Edges() {
		if _, ok := s[e]; !ok {
			t.Errorf("edge %v missing from set", e)
		}
	}
}

func TestDegreesMatchAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50)
	for i := 0; i < 200; i++ {
		b.TryAddEdge(NodeID(rng.Intn(50)), NodeID(rng.Intn(50)))
	}
	g := b.Graph()
	d := g.Degrees()
	sum := 0
	for u, du := range d {
		if du != g.Degree(NodeID(u)) {
			t.Errorf("Degrees()[%d] = %d != Degree = %d", u, du, g.Degree(NodeID(u)))
		}
		sum += du
	}
	if sum != 2*g.NumEdges() {
		t.Errorf("handshake: sum deg = %d, want %d", sum, 2*g.NumEdges())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := path5()
	sub, err := g.InducedSubgraph([]NodeID{0, 1, 2, 4})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	// Edges fully inside {0,1,2,4}: (0,1) and (1,2); (3,4) drops out.
	if sub.NumEdges() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) {
		t.Errorf("induced edges = %v, want (0,1),(1,2)", sub.Edges())
	}
	if sub.HasEdge(3, 4) {
		t.Error("edge with excluded endpoint kept")
	}
	// Duplicates tolerated, out-of-range rejected.
	if _, err := g.InducedSubgraph([]NodeID{1, 1, 2}); err != nil {
		t.Errorf("duplicate nodes rejected: %v", err)
	}
	if _, err := g.InducedSubgraph([]NodeID{99}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestDensity(t *testing.T) {
	if got := path5().Density(); got != 4.0/10.0 {
		t.Errorf("P5 density = %v, want 0.4", got)
	}
	var empty Graph
	if empty.Density() != 0 {
		t.Error("empty density != 0")
	}
	if got := MustFromEdges(1, nil).Density(); got != 0 {
		t.Errorf("singleton density = %v, want 0", got)
	}
}

func TestBytesScalesWithEdges(t *testing.T) {
	small := path5()
	big := MustFromEdges(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}})
	if small.Bytes() >= big.Bytes() {
		t.Errorf("Bytes: %d-edge graph %d >= %d-edge graph %d",
			small.NumEdges(), small.Bytes(), big.NumEdges(), big.Bytes())
	}
	var empty Graph
	if empty.Bytes() <= 0 {
		t.Error("empty graph reports non-positive bytes")
	}
}

func TestGraphString(t *testing.T) {
	g := path5()
	if got, want := g.String(), "graph{|V|=5 |E|=4}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := (Edge{1, 2}).String(), "(1,2)"; got != want {
		t.Errorf("Edge.String = %q, want %q", got, want)
	}
}

func TestSubgraphByIDsMatchesSubgraph(t *testing.T) {
	g := microTestGraph(t, 150, 500)
	rng := rand.New(rand.NewSource(3))
	all := g.Edges()
	for trial := 0; trial < 10; trial++ {
		var ids []int32
		var edges []Edge
		for i := range all {
			if rng.Intn(3) == 0 {
				ids = append(ids, int32(i))
				edges = append(edges, all[i])
			}
		}
		fast, err := g.SubgraphByIDs(ids)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := g.Subgraph(edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("SubgraphByIDs result invalid: %v", err)
		}
		if fast.NumNodes() != slow.NumNodes() || fast.NumEdges() != slow.NumEdges() {
			t.Fatalf("shape (%d,%d) != (%d,%d)", fast.NumNodes(), fast.NumEdges(), slow.NumNodes(), slow.NumEdges())
		}
		fe, se := fast.Edges(), slow.Edges()
		for i := range fe {
			if fe[i] != se[i] {
				t.Fatalf("edge %d: %v != %v", i, fe[i], se[i])
			}
		}
		for u := 0; u < fast.NumNodes(); u++ {
			fn, sn := fast.Neighbors(NodeID(u)), slow.Neighbors(NodeID(u))
			if len(fn) != len(sn) {
				t.Fatalf("node %d: degree %d != %d", u, len(fn), len(sn))
			}
			for i := range fn {
				if fn[i] != sn[i] {
					t.Fatalf("node %d neighbor %d: %d != %d", u, i, fn[i], sn[i])
				}
			}
		}
	}
}

func TestSubgraphByIDsRejectsBadInput(t *testing.T) {
	g := microTestGraph(t, 50, 120)
	for name, ids := range map[string][]int32{
		"descending":   {3, 1},
		"duplicate":    {2, 2},
		"negative":     {-1},
		"out-of-range": {0, int32(g.NumEdges())},
	} {
		if _, err := g.SubgraphByIDs(ids); err == nil {
			t.Errorf("%s ids accepted", name)
		}
	}
	empty, err := g.SubgraphByIDs(nil)
	if err != nil {
		t.Fatalf("empty id set rejected: %v", err)
	}
	if empty.NumEdges() != 0 || empty.NumNodes() != g.NumNodes() {
		t.Errorf("empty subgraph shape (%d,%d)", empty.NumNodes(), empty.NumEdges())
	}
}
