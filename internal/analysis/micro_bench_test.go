package analysis

import (
	"testing"

	"edgeshed/internal/graph/gen"
)

func BenchmarkBFS(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, PageRankOptions{})
	}
}

func BenchmarkLocalClustering(b *testing.B) {
	g := gen.HolmeKim(10000, 5, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalClustering(g, 1)
	}
}

func BenchmarkDistanceProfileSampled(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDistanceProfile(g, ProfileOptions{Sources: 128, Seed: 2})
	}
}

// In the Serial/Parallel pairs below, Serial is the seed kernel preserved in
// oracle_test.go and Parallel the production kernel at 4 workers; their
// ns/op ratio is the parallel speedup.

// The profile pair uses m = 8 (average degree 16), in the density range of
// the paper's datasets (email-Enron ~10, ca-HepPh ~21), where the
// direction-optimizing traversal earns its keep.

func BenchmarkDistanceProfileSerial(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serialDistanceProfile(g, ProfileOptions{Sources: 128, Seed: 2})
	}
}

func BenchmarkDistanceProfileParallel(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 8, 1)
	g.CSR() // build the cached view outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDistanceProfile(g, ProfileOptions{Sources: 128, Seed: 2, Workers: 4})
	}
}

// The PerSource/MSBFS pair compares the replaced per-source
// direction-optimizing kernel against the bit-parallel batched engine,
// single worker, same graph and source sample as the Serial/Parallel pair
// above.

func BenchmarkDistanceProfilePerSource(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 8, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perSourceDistanceProfile(g, ProfileOptions{Sources: 128, Seed: 2})
	}
}

func BenchmarkDistanceProfileMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(10000, 8, 1)
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDistanceProfile(g, ProfileOptions{Sources: 128, Seed: 2, Workers: 1})
	}
}

func BenchmarkClusteringSerial(b *testing.B) {
	g := gen.HolmeKim(10000, 5, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serialLocalClustering(g)
	}
}

func BenchmarkClusteringParallel(b *testing.B) {
	g := gen.HolmeKim(10000, 5, 0.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LocalClustering(g, 4)
	}
}

func BenchmarkKCore(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KCore(g)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := gen.ErdosRenyi(20000, 30000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(g)
	}
}

func BenchmarkTwoHopPairsCapped(b *testing.B) {
	g := gen.BarabasiAlbert(5000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwoHopPairs(g, 10000, 2)
	}
}
