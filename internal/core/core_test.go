package core

import (
	"math"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func TestCheckPRejectsBadRatios(t *testing.T) {
	g := gen.Cycle(10)
	for _, r := range []Reducer{CRR{}, BM2{}, Random{}} {
		for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
			if _, err := r.Reduce(g, p); err == nil {
				t.Errorf("%s accepted p = %v", r.Name(), p)
			}
		}
	}
}

// TestNewResultIDs pins the bitset ordering of selected ids: any order
// gives the graph newResult builds from the same edges, with ids left
// ascending, and an id selected twice or outside [0, |E|) is an error.
func TestNewResultIDs(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 1)
	ids := []int32{70, 5, 64, 63, 0, 95, 2}
	want := make([]graph.Edge, 0, len(ids))
	for _, id := range []int32{0, 2, 5, 63, 64, 70, 95} {
		want = append(want, g.Edges()[id])
	}
	res, err := newResultIDs(g, 0.5, ids)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := newResult(g, 0.5, want)
	if err != nil {
		t.Fatal(err)
	}
	sameReduction(t, "newResultIDs", res, wantRes)
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not left ascending: %v", ids)
		}
	}
	for _, bad := range [][]int32{{3, 1, 3}, {0, 0}, {-1}, {int32(g.NumEdges())}} {
		if _, err := newResultIDs(g, 0.5, bad); err == nil {
			t.Errorf("newResultIDs(%v) accepted", bad)
		}
	}
}

func TestReducerNames(t *testing.T) {
	if (CRR{}).Name() != "CRR" || (BM2{}).Name() != "BM2" || (Random{}).Name() != "Random" {
		t.Error("reducer names do not match the paper's table headers")
	}
}

func TestResultMetricsOnKnownReduction(t *testing.T) {
	// P4: 0-1-2-3, keep only edge (1,2) at p = 0.5.
	g := gen.Path(4)
	sub, err := g.Subgraph([]graph.Edge{{U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := &Result{Original: g, Reduced: sub, P: 0.5}
	// Expected degrees: 0.5, 1, 1, 0.5. Actual: 0, 1, 1, 0.
	wantDis := []float64{-0.5, 0, 0, -0.5}
	for u, w := range wantDis {
		if got := r.Dis(graph.NodeID(u)); math.Abs(got-w) > 1e-9 {
			t.Errorf("dis(%d) = %v, want %v", u, got, w)
		}
	}
	if got := r.Delta(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Δ = %v, want 1.0", got)
	}
	if got := r.ActiveNodes(); got != 2 {
		t.Errorf("ActiveNodes = %d, want 2", got)
	}
	if got := r.AvgDelta(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("AvgDelta = %v, want 0.5", got)
	}
	if got := r.AvgDisPerNode(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("AvgDisPerNode = %v, want 0.25", got)
	}
}

func TestAvgDeltaEmptyReduction(t *testing.T) {
	g := gen.Path(4)
	sub, _ := g.Subgraph(nil)
	r := &Result{Original: g, Reduced: sub, P: 0.5}
	if got := r.AvgDelta(); got != 0 {
		t.Errorf("AvgDelta with no active nodes = %v, want 0", got)
	}
}

func TestBounds(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 1)
	// CRR bound peaks at p = 0.5 and vanishes toward the endpoints.
	if CRRBound(g, 0.5) <= CRRBound(g, 0.1) {
		t.Error("CRR bound not peaked at p = 0.5")
	}
	if math.Abs(CRRBound(g, 0.5)-float64(g.NumEdges())/float64(g.NumNodes())) > 1e-9 {
		t.Errorf("CRRBound(0.5) = %v, want |E|/|V|", CRRBound(g, 0.5))
	}
	// BM2 bound decreases in p.
	if BM2Bound(g, 0.9) >= BM2Bound(g, 0.1) {
		t.Error("BM2 bound not decreasing in p")
	}
	var empty graph.Graph
	if CRRBound(&empty, 0.5) != 0 || BM2Bound(&empty, 0.5) != 0 {
		t.Error("bounds on the empty graph should be 0")
	}
}

func TestTheorem1BoundIsTight(t *testing.T) {
	// The proof of Theorem 1 constructs the worst case: a subset of nodes
	// keeps full degree while the rest drop to zero. Realize it exactly
	// with two disjoint cycles: keep all of cycle A (|E_A| = p|E|), shed
	// all of cycle B. The resulting Δ equals 4p(1-p)|E| — the bound is
	// attained, so it cannot be improved without more assumptions.
	nA, nB := 30, 70 // p = 30/100
	b := graph.NewBuilder(nA + nB)
	for i := 0; i < nA; i++ {
		b.TryAddEdge(graph.NodeID(i), graph.NodeID((i+1)%nA))
	}
	for i := 0; i < nB; i++ {
		b.TryAddEdge(graph.NodeID(nA+i), graph.NodeID(nA+(i+1)%nB))
	}
	g := b.Graph()
	p := float64(nA) / float64(nA+nB)
	var keepA []graph.Edge
	for _, e := range g.Edges() {
		if int(e.U) < nA && int(e.V) < nA {
			keepA = append(keepA, e)
		}
	}
	adversarial, err := g.Subgraph(keepA)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{Original: g, Reduced: adversarial, P: p}
	wantDelta := 4 * p * (1 - p) * float64(g.NumEdges())
	if math.Abs(res.Delta()-wantDelta) > 1e-9 {
		t.Errorf("adversarial Δ = %v, want exactly 4p(1-p)|E| = %v", res.Delta(), wantDelta)
	}
	if math.Abs(res.AvgDisPerNode()-CRRBound(g, p)) > 1e-9 {
		t.Errorf("adversarial avg = %v, want the Theorem 1 bound %v", res.AvgDisPerNode(), CRRBound(g, p))
	}
	// The actual algorithms stay strictly below the adversarial extreme.
	crr, err := (CRR{Seed: 1}).Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if crr.Delta() >= wantDelta {
		t.Errorf("CRR Δ = %v not below the adversarial %v", crr.Delta(), wantDelta)
	}
}

func TestDeltaChangeMatchesBruteForce(t *testing.T) {
	// deltaChange must equal a full before/after Δ recomputation, including
	// when the swapped edges share endpoints.
	g := gen.Complete(5)
	p := 0.37
	cases := []struct{ e1, e2 graph.Edge }{
		{graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}}, // disjoint
		{graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 2}}, // share one node
		{graph.Edge{U: 0, V: 1}, graph.Edge{U: 0, V: 2}}, // share U
	}
	for _, c := range cases {
		degKept := []int{2, 1, 1, 2, 0} // arbitrary partial degrees
		dis := func(u graph.NodeID) float64 {
			return float64(degKept[u]) - p*float64(g.Degree(u))
		}
		got := deltaChange(dis, c.e1.U, c.e1.V, c.e2.U, c.e2.V)
		// Brute force: apply the swap, recompute Σ|dis| over all nodes.
		before := 0.0
		for u := 0; u < 5; u++ {
			before += math.Abs(dis(graph.NodeID(u)))
		}
		degKept[c.e1.U]--
		degKept[c.e1.V]--
		degKept[c.e2.U]++
		degKept[c.e2.V]++
		after := 0.0
		for u := 0; u < 5; u++ {
			after += math.Abs(dis(graph.NodeID(u)))
		}
		if want := after - before; math.Abs(got-want) > 1e-9 {
			t.Errorf("swap %v->%v: deltaChange = %v, want %v", c.e1, c.e2, got, want)
		}
	}
}
