package graph

import (
	"bytes"
	"fmt"
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

// BenchmarkCSRBuild times the Graph constructor alone (fillCSR from a
// sorted canonical edge list) at one worker and at the default count, on
// graphs on both sides of serialBelow, the edge count under which the
// default runs on one worker: the sizes of the bench's suite-grqc and
// crr-exact-hepph inputs, under it, and 250,000 edges, over it.
func BenchmarkCSRBuild(b *testing.B) {
	for _, size := range []struct{ n, m int }{{5242, 15720}, {12008, 120025}, {25000, 250000}} {
		g := microGraph(b, size.n, size.m)
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("m=%d/workers=%d", size.m, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkGraph = newGraph(g.NumNodes(), g.Edges(), workers)
				}
			})
		}
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

// sinkCSR and sinkGraph defeat dead-code elimination in the benchmarks.
var (
	sinkCSR   int64
	sinkGraph *Graph
)

func BenchmarkValidate(b *testing.B) {
	g := microGraph(b, 10000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
