package matching

import (
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// The MapIndexed/CSRIndexed pair compares the seed-era edge-struct sort
// (key recomputed per comparison) against the production id sort with
// precomputed keys; their ns/op ratio is the speedup.

func benchCaps(g *graph.Graph, p float64) []int {
	caps := make([]int, g.NumNodes())
	for u := range caps {
		caps[u] = int(p * float64(g.Degree(graph.NodeID(u))))
	}
	return caps
}

func BenchmarkGreedyBMatchingMapIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	caps := benchCaps(g, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedGreedyBMatching(g, caps, ScarceFirst)
	}
}

func BenchmarkGreedyBMatchingCSRIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	caps := benchCaps(g, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyBMatching(g, caps, ScarceFirst); err != nil {
			b.Fatal(err)
		}
	}
}
