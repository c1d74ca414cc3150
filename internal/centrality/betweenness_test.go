package centrality

import (
	"math"
	"sort"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < eps }

func TestNodeBetweennessPath(t *testing.T) {
	g := gen.Path(5)
	got := NodeBetweenness(g, Options{})
	want := []float64{0, 3, 4, 3, 0}
	for u := range want {
		if !approx(got[u], want[u]) {
			t.Errorf("node %d: got %v, want %v", u, got[u], want[u])
		}
	}
}

func TestEdgeBetweennessPath(t *testing.T) {
	g := gen.Path(5)
	scores := EdgeBetweennessScores(g, Options{})
	want := map[graph.Edge]float64{
		{U: 0, V: 1}: 4, {U: 2, V: 1}: 6, {U: 2, V: 3}: 6, {U: 4, V: 3}: 4,
	}
	for e, w := range want {
		if got := scores[g.CSR().EdgeIDOf(e.U, e.V)]; !approx(got, w) {
			t.Errorf("edge %v: got %v, want %v", e, got, w)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	g := gen.Star(5) // hub 0, leaves 1..4
	nodes, edges := Betweenness(g, Options{})
	if !approx(nodes[0], 6) { // C(4,2) leaf pairs
		t.Errorf("hub betweenness = %v, want 6", nodes[0])
	}
	for u := 1; u < 5; u++ {
		if !approx(nodes[u], 0) {
			t.Errorf("leaf %d betweenness = %v, want 0", u, nodes[u])
		}
	}
	for i, got := range edges {
		if !approx(got, 4) {
			t.Errorf("edge %v betweenness = %v, want 4", g.Edges()[i], got)
		}
	}
}

func TestBetweennessCycle5(t *testing.T) {
	g := gen.Cycle(5)
	nodes, edges := Betweenness(g, Options{})
	for u := range nodes {
		if !approx(nodes[u], 1) {
			t.Errorf("node %d betweenness = %v, want 1", u, nodes[u])
		}
	}
	for i, got := range edges {
		if !approx(got, 3) {
			t.Errorf("edge %v betweenness = %v, want 3", g.Edges()[i], got)
		}
	}
}

func TestBetweennessCycle4MultiplePaths(t *testing.T) {
	// C4 has pairs with two shortest paths; dependencies split evenly.
	g := gen.Cycle(4)
	nodes, edges := Betweenness(g, Options{})
	for u := range nodes {
		if !approx(nodes[u], 0.5) {
			t.Errorf("node %d betweenness = %v, want 0.5", u, nodes[u])
		}
	}
	for i, got := range edges {
		if !approx(got, 2) {
			t.Errorf("edge %v betweenness = %v, want 2", g.Edges()[i], got)
		}
	}
}

func TestBetweennessComplete(t *testing.T) {
	g := gen.Complete(4)
	nodes, edges := Betweenness(g, Options{})
	for u := range nodes {
		if !approx(nodes[u], 0) {
			t.Errorf("node %d betweenness = %v, want 0 in K4", u, nodes[u])
		}
	}
	for i, got := range edges {
		if !approx(got, 1) {
			t.Errorf("edge %v betweenness = %v, want 1 in K4", g.Edges()[i], got)
		}
	}
}

func TestBetweennessDisconnected(t *testing.T) {
	// Two disjoint paths 0-1-2 and 3-4-5: middles get 1, no cross terms.
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}})
	nodes := NodeBetweenness(g, Options{})
	want := []float64{0, 1, 0, 0, 1, 0}
	for u := range want {
		if !approx(nodes[u], want[u]) {
			t.Errorf("node %d: got %v, want %v", u, nodes[u], want[u])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 17)
	serialN, serialE := Betweenness(g, Options{Workers: 1})
	parN, parE := Betweenness(g, Options{Workers: 8})
	for u := range serialN {
		if math.Abs(serialN[u]-parN[u]) > 1e-6 {
			t.Fatalf("node %d: serial %v != parallel %v", u, serialN[u], parN[u])
		}
	}
	for i := range serialE {
		if math.Abs(serialE[i]-parE[i]) > 1e-6 {
			t.Fatalf("edge %d: serial %v != parallel %v", i, serialE[i], parE[i])
		}
	}
}

func TestSampledApproximatesExact(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 23)
	exact := EdgeBetweennessScores(g, Options{})
	// The sampled estimator should identify most of the exact top decile.
	// A single draw hovers around the threshold (any one seed can be
	// unlucky), so average the overlap across several sampling seeds.
	top := func(s []float64) map[int]struct{} {
		idx := make([]int, len(s))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return s[idx[a]] > s[idx[b]] })
		k := len(s) / 10
		set := make(map[int]struct{}, k)
		for _, i := range idx[:k] {
			set[i] = struct{}{}
		}
		return set
	}
	te := top(exact)
	var fracSum float64
	const draws = 5
	for seed := int64(1); seed <= draws; seed++ {
		ts := top(EdgeBetweennessScores(g, Options{Samples: 150, Seed: seed}))
		inter := 0
		for i := range te {
			if _, ok := ts[i]; ok {
				inter++
			}
		}
		fracSum += float64(inter) / float64(len(te))
	}
	if frac := fracSum / draws; frac < 0.55 {
		t.Errorf("mean sampled top-10%% overlap with exact = %.2f, want >= 0.55", frac)
	}
}

func TestSamplesGEnIsExact(t *testing.T) {
	g := gen.Cycle(6)
	exact := NodeBetweenness(g, Options{})
	overSampled := NodeBetweenness(g, Options{Samples: 100, Seed: 1})
	for u := range exact {
		if !approx(exact[u], overSampled[u]) {
			t.Errorf("node %d: exact %v != oversampled %v", u, exact[u], overSampled[u])
		}
	}
}

func TestBetweennessSingleNodeAndEmpty(t *testing.T) {
	var empty graph.Graph
	if got := NodeBetweenness(&empty, Options{}); len(got) != 0 {
		t.Errorf("empty graph scores = %v", got)
	}
	single := graph.MustFromEdges(1, nil)
	if got := NodeBetweenness(single, Options{}); len(got) != 1 || got[0] != 0 {
		t.Errorf("single node scores = %v", got)
	}
}

// TestPairDecomposition cross-checks Brandes against a brute-force count of
// shortest paths through each node on a random graph.
func TestPairDecomposition(t *testing.T) {
	g := gen.ErdosRenyi(40, 90, 3)
	got := NodeBetweenness(g, Options{})
	want := bruteForceNodeBetweenness(g)
	for u := range want {
		if math.Abs(got[u]-want[u]) > 1e-6 {
			t.Fatalf("node %d: brandes %v != brute force %v", u, got[u], want[u])
		}
	}
}

// bruteForceNodeBetweenness computes betweenness by explicit all-pairs path
// counting: sigma(s,t) and sigma(s,t|v) via BFS counts from every node.
func bruteForceNodeBetweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		dist[s], sigma[s] = bfsCounts(g, graph.NodeID(s))
	}
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		for tt := s + 1; tt < n; tt++ {
			if dist[s][tt] < 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == tt {
					continue
				}
				// v lies on a shortest s-t path iff d(s,v)+d(v,t)=d(s,t).
				if dist[s][v] >= 0 && dist[tt][v] >= 0 && dist[s][v]+dist[tt][v] == dist[s][tt] {
					bc[v] += sigma[s][v] * sigma[tt][v] / sigma[s][tt]
				}
			}
		}
	}
	return bc
}

func bfsCounts(g *graph.Graph, s graph.NodeID) ([]int32, []float64) {
	n := g.NumNodes()
	dist := make([]int32, n)
	sigma := make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	sigma[s] = 1
	queue := []graph.NodeID{s}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
			}
		}
	}
	return dist, sigma
}
