package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// microGraph builds a reusable random benchmark graph.
func microGraph(b *testing.B, n, m int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilder(n)
	for bld.NumEdges() < m {
		bld.TryAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return bld.Graph()
}

func BenchmarkBuilderGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]Edge, 0, 50000)
	seen := map[Edge]struct{}{}
	for len(edges) < 50000 {
		e := Edge{NodeID(rng.Intn(10000)), NodeID(rng.Intn(10000))}.Canonical()
		if e.U == e.V {
			continue
		}
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(10000)
		for _, e := range edges {
			bld.TryAddEdge(e.U, e.V)
		}
		bld.Graph()
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(NodeID(rng.Intn(10000)), NodeID(rng.Intn(10000)))
	}
}

func BenchmarkEdgeListWrite(b *testing.B) {
	g := microGraph(b, 5000, 25000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRBuild times the Graph constructor alone: degree count and
// slot fill from a sorted canonical edge list.
func BenchmarkCSRBuild(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newGraph(g.NumNodes(), g.Edges())
	}
}

// BenchmarkAdjTraversal vs BenchmarkCSRTraversal: full sweep over every
// adjacency entry, node by node through Neighbors and flat over Targets —
// the per-node slicing cost a flat kernel loop avoids.
func BenchmarkAdjTraversal(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for u := 0; u < g.NumNodes(); u++ {
			for _, w := range g.Neighbors(NodeID(u)) {
				sum += int64(w)
			}
		}
	}
	sinkCSR = sum
}

func BenchmarkCSRTraversal(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	c := g.CSR()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for s := range c.Targets {
			sum += int64(c.Targets[s])
		}
	}
	sinkCSR = sum
}

// sinkCSR defeats dead-code elimination in the traversal benchmarks.
var sinkCSR int64

func BenchmarkValidate(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
