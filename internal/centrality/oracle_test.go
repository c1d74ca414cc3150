package centrality

// This file preserves the seed's map-indexed per-source Brandes as a test
// oracle: one BFS per source, a map[graph.Edge]int32 lookup per
// predecessor visit, sources striped over par.Shards accumulation shards
// (source i into shard i mod par.Shards) whose partial sums merge in shard
// order. The production MS-BFS path sums in a different canonical order,
// so TestBetweennessNearSeedOracle (msbfs_oracle_test.go) pins it to this
// oracle within float tolerance, and its own canonical serial oracle pins
// it bit-exactly.

import (
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/par"
)

// edgeIndex builds the canonical-edge -> edge-list-position map the seed
// oracle accumulates through. Production code no longer builds this map —
// CSR.EdgeIDOf binary-searches the CSR instead — so it lives with the
// oracle that still needs it.
func edgeIndex(g *graph.Graph) map[graph.Edge]int32 {
	idx := make(map[graph.Edge]int32, g.NumEdges())
	for i, e := range g.Edges() {
		idx[e] = int32(i)
	}
	return idx
}

// mapBrandesState is the seed per-source scratch space: per-node predecessor
// slices instead of flat CSR-slot storage.
type mapBrandesState struct {
	queue []graph.NodeID
	dist  []int32
	sigma []float64
	delta []float64
	preds [][]graph.NodeID
}

func newMapBrandesState(n int) *mapBrandesState {
	return &mapBrandesState{
		queue: make([]graph.NodeID, 0, n),
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		preds: make([][]graph.NodeID, n),
	}
}

// run is the seed accumulation loop: note the map lookup and Canonical()
// call per predecessor visit that the CSR path eliminates.
func (st *mapBrandesState) run(g *graph.Graph, s graph.NodeID, nodeAcc, edgeAcc []float64, eIdx map[graph.Edge]int32) {
	st.queue = st.queue[:0]
	for i := range st.dist {
		st.dist[i] = -1
		st.sigma[i] = 0
		st.delta[i] = 0
		st.preds[i] = st.preds[i][:0]
	}
	st.dist[s] = 0
	st.sigma[s] = 1
	st.queue = append(st.queue, s)
	for head := 0; head < len(st.queue); head++ {
		v := st.queue[head]
		dv := st.dist[v]
		for _, w := range g.Neighbors(v) {
			switch {
			case st.dist[w] < 0:
				st.dist[w] = dv + 1
				st.sigma[w] = st.sigma[v]
				st.preds[w] = append(st.preds[w], v)
				st.queue = append(st.queue, w)
			case st.dist[w] == dv+1:
				st.sigma[w] += st.sigma[v]
				st.preds[w] = append(st.preds[w], v)
			}
		}
	}
	for i := len(st.queue) - 1; i >= 0; i-- {
		w := st.queue[i]
		coeff := (1 + st.delta[w]) / st.sigma[w]
		for _, v := range st.preds[w] {
			c := st.sigma[v] * coeff
			st.delta[v] += c
			if edgeAcc != nil {
				edgeAcc[eIdx[graph.Edge{U: v, V: w}.Canonical()]] += c
			}
		}
		if w != s && nodeAcc != nil {
			nodeAcc[w] += st.delta[w]
		}
	}
}

// oracleBoth is the seed driver over the map-indexed kernel: the
// production source selection and scaling, with sources striped over fixed
// accumulation shards that run sequentially and merge in shard order.
func oracleBoth(g *graph.Graph, opt Options, wantNodes, wantEdges bool) ([]float64, []float64) {
	n := g.NumNodes()
	var nodes, edges []float64
	if wantNodes {
		nodes = make([]float64, n)
	}
	if wantEdges {
		edges = make([]float64, g.NumEdges())
	}
	if n == 0 {
		return nodes, edges
	}
	srcs, scale := opt.sources(n)
	if len(srcs) == 0 {
		return nodes, edges
	}
	var eIdx map[graph.Edge]int32
	if wantEdges {
		eIdx = edgeIndex(g)
	}
	shards := par.Shards
	if shards > len(srcs) {
		shards = len(srcs)
	}
	type partial struct {
		nodes, edges []float64
	}
	parts := make([]partial, shards)
	st := newMapBrandesState(n)
	for s := 0; s < shards; s++ {
		var nodeAcc, edgeAcc []float64
		if wantNodes {
			nodeAcc = make([]float64, n)
		}
		if wantEdges {
			edgeAcc = make([]float64, g.NumEdges())
		}
		for i := s; i < len(srcs); i += shards {
			st.run(g, srcs[i], nodeAcc, edgeAcc, eIdx)
		}
		parts[s] = partial{nodes: nodeAcc, edges: edgeAcc}
	}
	if wantNodes {
		for _, p := range parts {
			for i, v := range p.nodes {
				nodes[i] += v
			}
		}
		for i := range nodes {
			nodes[i] *= scale / 2
		}
	}
	if wantEdges {
		for _, p := range parts {
			for i, v := range p.edges {
				edges[i] += v
			}
		}
		for i := range edges {
			edges[i] *= scale / 2
		}
	}
	return nodes, edges
}

// TestBetweennessDeterministicAcrossRuns pins the static-striding guarantee:
// repeated runs with the same Options (including Workers > 1) are
// bit-identical — no channel-scheduling nondeterminism.
func TestBetweennessDeterministicAcrossRuns(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 19)
	opt := Options{Samples: 50, Seed: 9, Workers: 4}
	n1, e1 := Betweenness(g, opt)
	n2, e2 := Betweenness(g, opt)
	for u := range n1 {
		if n1[u] != n2[u] {
			t.Fatalf("node %d differs across identical runs: %v vs %v", u, n1[u], n2[u])
		}
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs across identical runs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// TestSourcesPartialFisherYates covers the O(Samples) sampler: fixed seed ⇒
// fixed sequence, no duplicate sources, all in range, correct scale.
func TestSourcesPartialFisherYates(t *testing.T) {
	const n, s = 1000, 64
	o := Options{Samples: s, Seed: 42}
	a, scaleA := o.sources(n)
	b, scaleB := o.sources(n)
	if len(a) != s || len(b) != s {
		t.Fatalf("got %d/%d sources, want %d", len(a), len(b), s)
	}
	if want := float64(n) / float64(s); scaleA != want || scaleB != want {
		t.Errorf("scale = %v/%v, want %v", scaleA, scaleB, want)
	}
	seen := make(map[graph.NodeID]struct{}, s)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("source %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || int(a[i]) >= n {
			t.Fatalf("source %d = %v outside [0,%d)", i, a[i], n)
		}
		if _, dup := seen[a[i]]; dup {
			t.Fatalf("duplicate sampled source %v", a[i])
		}
		seen[a[i]] = struct{}{}
	}
	// A different seed should give a different sequence (overwhelmingly).
	c, _ := Options{Samples: s, Seed: 43}.sources(n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical source sequences")
	}
}

// TestNegativeOptionsClamped pins the documented handling of negative
// Samples (⇒ exact) and negative Workers (⇒ GOMAXPROCS).
func TestNegativeOptionsClamped(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 29)
	exact := NodeBetweenness(g, Options{Workers: 1})
	negSamples := NodeBetweenness(g, Options{Samples: -7, Workers: 1})
	for u := range exact {
		if exact[u] != negSamples[u] {
			t.Fatalf("node %d: Samples=-7 %v != exact %v", u, negSamples[u], exact[u])
		}
	}
	// Negative workers must compute the same quantity (different partition,
	// so approximate comparison).
	negWorkers := NodeBetweenness(g, Options{Workers: -3})
	for u := range exact {
		if diff := exact[u] - negWorkers[u]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("node %d: Workers=-3 %v != exact %v", u, negWorkers[u], exact[u])
		}
	}
}

// TestEmptyGraphPositiveSamples covers the Samples > 0 && |V| == 0 corner
// the batched driver guards explicitly.
func TestEmptyGraphPositiveSamples(t *testing.T) {
	var empty graph.Graph
	nodes, edges := msbfsBetweenness(&empty, Options{Samples: 5, Workers: 3}, true, true)
	if len(nodes) != 0 || len(edges) != 0 {
		t.Errorf("empty graph: nodes=%v edges=%v, want empty", nodes, edges)
	}
}
