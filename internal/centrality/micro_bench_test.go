package centrality

import (
	"fmt"
	"testing"

	"edgeshed/internal/graph/gen"
)

func BenchmarkNodeBetweennessExact(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NodeBetweenness(g, Options{})
	}
}

func BenchmarkEdgeBetweennessExact(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessScores(g, Options{})
	}
}

func BenchmarkEdgeBetweennessSampled(b *testing.B) {
	g := gen.BarabasiAlbert(5000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessScores(g, Options{Samples: 128, Seed: 2})
	}
}

// The MapIndexed/CSRIndexed pair tracks production against the seed
// map-indexed implementation: same BA graph and scale as
// BenchmarkEdgeBetweennessExact, single worker so the comparison measures
// the kernels rather than scheduling. CSRIndexed is whatever the public
// entry point runs — today the batched MS-BFS engine — so this pair is the
// cumulative production-vs-seed speedup.

func BenchmarkEdgeBetweennessMapIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleBoth(g, Options{Workers: 1}, false, true)
	}
}

func BenchmarkEdgeBetweennessCSRIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	g.CSR() // build outside the timer, as MapIndexed gets adj for free
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessScores(g, Options{Workers: 1})
	}
}

func BenchmarkNodeBetweennessMapIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleBoth(g, Options{Workers: 1}, true, false)
	}
}

func BenchmarkNodeBetweennessCSRIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NodeBetweenness(g, Options{Workers: 1})
	}
}

func BenchmarkBetweennessWorkers(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 3, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NodeBetweenness(g, Options{Workers: workers})
			}
		})
	}
}

func BenchmarkCloseness(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closeness(g, Options{})
	}
}

// The Closeness PerSource/MSBFS pair compares the replaced one-BFS-per-node
// kernel against the bit-parallel batched engine, single worker on the
// same graph, so the speedup is the batching alone — traversal sharing and
// word-level wavefronts, not scheduling. The MSBFS benchmarks below time
// the batched betweenness kernels on the same footing.

func BenchmarkClosenessPerSource(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closenessPerSource(g)
	}
}

func BenchmarkClosenessMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closeness(g, Options{Workers: 1})
	}
}

func BenchmarkNodeBetweennessMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NodeBetweenness(g, Options{Workers: 1})
	}
}

// BenchmarkEdgeBetweennessScoresMSBFS times the CRR Phase 1 scorer, single
// worker, on the Closeness pair's BA shape and scale.
func BenchmarkEdgeBetweennessScoresMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessScores(g, Options{Workers: 1})
	}
}
