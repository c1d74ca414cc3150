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
		EdgeBetweenness(g, Options{})
	}
}

func BenchmarkEdgeBetweennessSampled(b *testing.B) {
	g := gen.BarabasiAlbert(5000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweenness(g, Options{Samples: 128, Seed: 2})
	}
}

// The MapIndexed/CSRIndexed pair tracks production against the seed
// map-indexed implementation: same BA graph and scale as
// BenchmarkEdgeBetweennessExact, single worker so the comparison measures
// the kernels rather than scheduling. CSRIndexed is whatever the public
// entry point runs — today the batched MS-BFS engine — so this pair is the
// cumulative production-vs-seed speedup, while the PerSource/MSBFS pairs
// below isolate the batching win alone.

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

// The PerSource/MSBFS pairs compare the replaced one-BFS-per-source
// kernels against the bit-parallel batched engine, single worker on the
// same graph, so the speedup is the batching alone — traversal sharing and
// word-level wavefronts, not scheduling.

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

func BenchmarkNodeBetweennessPerSource(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		both(g, Options{Workers: 1}, true, false)
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

// The EdgeBetweennessScores pair compares the preserved per-source edge path
// (persource.go) against the batched edge-dependency fold, single worker
// on the same graph — the CRR Phase 1 scorer before and after. Same BA
// shape and scale as the Closeness pair so the BFS-shaped kernels are
// compared on one footing. (The stem is the API entry point's name; the
// bare EdgeBetweenness stem already belongs to the MapIndexed/CSRIndexed
// pair above.)

func BenchmarkEdgeBetweennessScoresPerSource(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PerSourceEdgeBetweennessScores(g, Options{Workers: 1})
	}
}

func BenchmarkEdgeBetweennessScoresMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(3000, 3, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessScores(g, Options{Workers: 1})
	}
}
