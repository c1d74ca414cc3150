package embed

import (
	"math"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func TestRandomWalksShape(t *testing.T) {
	g := gen.Cycle(20)
	walks := RandomWalks(g, WalkConfig{WalksPerNode: 3, WalkLength: 10, Seed: 1})
	if len(walks) != 60 {
		t.Fatalf("walk count = %d, want 60", len(walks))
	}
	for _, w := range walks {
		if len(w) != 10 {
			t.Fatalf("walk length = %d, want 10", len(w))
		}
		for i := 1; i < len(w); i++ {
			if !g.HasEdge(w[i-1], w[i]) {
				t.Fatalf("walk step %d: %d -> %d not an edge", i, w[i-1], w[i])
			}
		}
	}
}

func TestRandomWalksSkipIsolated(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}}) // node 2 isolated
	walks := RandomWalks(g, WalkConfig{WalksPerNode: 2, WalkLength: 5, Seed: 1})
	for _, w := range walks {
		if w[0] == 2 {
			t.Fatal("walk started at isolated node")
		}
	}
	if len(walks) != 4 { // 2 walks for each of the 2 connected nodes
		t.Errorf("walk count = %d, want 4", len(walks))
	}
}

func TestRandomWalksDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(50, 2, 3)
	a := RandomWalks(g, WalkConfig{Seed: 7})
	b := RandomWalks(g, WalkConfig{Seed: 7})
	if len(a) != len(b) {
		t.Fatal("walk counts differ")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("walk %d step %d differs", i, j)
			}
		}
	}
}

func TestNoiseTableProportions(t *testing.T) {
	g := gen.Star(10) // hub degree 9, leaves degree 1
	table := buildNoiseTable(g, 10000)
	hub := 0
	for _, u := range table {
		if u == 0 {
			hub++
		}
	}
	// Hub weight 9^0.75 ≈ 5.2 vs 9 leaves at 1: hub share ≈ 5.2/14.2 ≈ 37%.
	frac := float64(hub) / float64(len(table))
	if frac < 0.25 || frac > 0.5 {
		t.Errorf("hub noise share = %v, want ~0.37", frac)
	}
}

// TestNoiseTableCoversEveryNode is the large-|V| regression: a fixed
// 2^17-slot table floored every share of a 200,000-node cycle to zero and
// left node 0 as the only negative sample. A share below one slot still
// gets one; an isolated node gets none.
func TestNoiseTableCoversEveryNode(t *testing.T) {
	cycle := gen.Cycle(200000)
	requireSlots(t, "cycle", buildNoiseTable(cycle, noiseTableSize(cycle.NumNodes())), cycle)
	// Leaves of a 10-star share 0.28 slots each in a 4-slot table.
	b := graph.NewBuilder(11) // node 10 isolated
	for v := 1; v < 10; v++ {
		b.TryAddEdge(0, graph.NodeID(v))
	}
	star := b.Graph()
	requireSlots(t, "star", buildNoiseTable(star, 4), star)
}

// requireSlots fails unless table holds a slot for exactly the non-isolated
// nodes of g.
func requireSlots(t *testing.T, name string, table []graph.NodeID, g *graph.Graph) {
	t.Helper()
	slots := make([]int, g.NumNodes())
	for _, u := range table {
		slots[u]++
	}
	for u, c := range slots {
		if isolated := g.Degree(graph.NodeID(u)) == 0; isolated != (c == 0) {
			t.Fatalf("%s: node %d (degree %d) has %d noise slots", name, u, g.Degree(graph.NodeID(u)), c)
		}
	}
}

func TestSGNSSeparatesCommunities(t *testing.T) {
	// Two dense communities with a thin bridge: embeddings of same-community
	// nodes should be closer than cross-community ones on average.
	g := gen.PlantedPartition(2, 20, 0.5, 0.02, 5)
	emb := Node2Vec(g, WalkConfig{WalksPerNode: 8, WalkLength: 20, Seed: 6},
		SGNSConfig{Dim: 16, Epochs: 3, Seed: 7})
	var within, across float64
	var wn, an int
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			d := sqDist(emb[u], emb[v])
			if u/20 == v/20 {
				within += d
				wn++
			} else {
				across += d
				an++
			}
		}
	}
	within /= float64(wn)
	across /= float64(an)
	if within >= across {
		t.Errorf("mean within-community distance %v >= across %v", within, across)
	}
}

func TestSGNSShape(t *testing.T) {
	g := gen.Cycle(12)
	emb := Node2Vec(g, WalkConfig{WalksPerNode: 2, WalkLength: 8, Seed: 1}, SGNSConfig{Dim: 8, Seed: 2})
	if len(emb) != 12 {
		t.Fatalf("embeddings = %d, want 12", len(emb))
	}
	for u, vec := range emb {
		if len(vec) != 8 {
			t.Fatalf("dim of node %d = %d, want 8", u, len(vec))
		}
		for _, x := range vec {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite embedding component at node %d", u)
			}
		}
	}
}

func TestKMeansSeparatesClearClusters(t *testing.T) {
	// Two well-separated 2-D blobs.
	var pts [][]float64
	for i := 0; i < 20; i++ {
		pts = append(pts, []float64{0 + float64(i%5)*0.01, 0})
	}
	for i := 0; i < 20; i++ {
		pts = append(pts, []float64{10 + float64(i%5)*0.01, 10})
	}
	labels := KMeans(pts, 2, 50, 3)
	if len(labels) != 40 {
		t.Fatalf("labels = %d, want 40", len(labels))
	}
	for i := 1; i < 20; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("first blob split: labels[%d]=%d labels[0]=%d", i, labels[i], labels[0])
		}
	}
	for i := 21; i < 40; i++ {
		if labels[i] != labels[20] {
			t.Fatalf("second blob split")
		}
	}
	if labels[0] == labels[20] {
		t.Fatal("blobs merged")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if KMeans(nil, 3, 10, 1) != nil {
		t.Error("empty input should give nil")
	}
	if KMeans([][]float64{{1, 2}}, 0, 10, 1) != nil {
		t.Error("k = 0 should give nil")
	}
	// k > points: clamped, everything labeled within range.
	labels := KMeans([][]float64{{1}, {2}}, 5, 10, 1)
	for _, l := range labels {
		if l < 0 || l >= 2 {
			t.Errorf("label %d out of range", l)
		}
	}
	// Identical points: must terminate and label everything.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	if got := KMeans(same, 2, 10, 2); len(got) != 4 {
		t.Errorf("labels on identical points = %v", got)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	var pts [][]float64
	for i := 0; i < 30; i++ {
		pts = append(pts, []float64{float64(i), float64(i % 7)})
	}
	a := KMeans(pts, 3, 50, 9)
	b := KMeans(pts, 3, 50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different clustering")
		}
	}
}
