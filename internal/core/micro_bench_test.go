package core

import (
	"fmt"
	"math/rand"
	"testing"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph/gen"
)

func BenchmarkCRRReduce(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 4, 1)
	for _, p := range []float64{0.5, 0.1} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (CRR{Seed: 1, Betweenness: centrality.Options{Samples: 128, Seed: 2}}).Reduce(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBM2Reduce(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	for _, p := range []float64{0.5, 0.3, 0.1} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (BM2{}).Reduce(g, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// In the MapIndexed/CSRIndexed and Serial/Parallel pairs below, the old
// variant runs the preserved pre-migration implementation from
// oracle_test.go (or Workers = 1 for the sweep) and the new one the
// production code; their ns/op ratio is each stem's speedup.

func BenchmarkCRRReduceMapIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedCRRReduce(CRR{Seed: 1, Importance: ImportanceDegreeProduct}, g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRRReduceCSRIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (CRR{Seed: 1, Importance: ImportanceDegreeProduct}).Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBM2ReduceMapIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := seedBM2Reduce(BM2{}, g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBM2ReduceCSRIndexed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (BM2{}).Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCRRSweep runs the 9-point ratio sweep at the given worker count.
func benchCRRSweep(b *testing.B, workers int) {
	g := gen.BarabasiAlbert(5000, 4, 1)
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	c := CRR{Seed: 1, Importance: ImportanceRandom, Workers: workers}
	g.CSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Sweep(g, ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRRSweepSerial(b *testing.B) { benchCRRSweep(b, 1) }

func BenchmarkCRRSweepParallel(b *testing.B) { benchCRRSweep(b, 0) }

// BenchmarkCRRPhase2Only times the rewiring loop alone on a fixed random
// ranking at p = 0.5 and reports ns per attempt. BA(5000,4)'s Phase 2
// arrays fit in L2; BA(200000,4)'s (~8·10^5 edges) do not.
func BenchmarkCRRPhase2Only(b *testing.B) {
	for _, n := range []int{5000, 200000} {
		b.Run(fmt.Sprintf("BA(%d,4)", n), func(b *testing.B) {
			g := gen.BarabasiAlbert(n, 4, 1)
			c := CRR{Seed: 1, Importance: ImportanceRandom}
			tgt := targetEdges(g, 0.5)
			ranked := rankEdges(c.edgeImportance(g, nil), c.Seed)
			kept := make([]int32, len(ranked))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(kept, ranked)
				nodes := newNodeRecs(g, kept[:tgt], 0.5)
				b.StartTimer()
				c.rewire(g.Edges(), kept, tgt, nodes, 0.5, c.Seed, nil, 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.steps(tgt)), "ns/attempt")
		})
	}
}

// BenchmarkRankEdges times the Phase 1 ranking of 2^20 scores, all
// distinct and all equal (ImportanceRandom's shape, ordered by the
// tiebreak alone).
func BenchmarkRankEdges(b *testing.B) {
	distinct := make([]float64, 1<<20)
	for i, v := range rand.New(rand.NewSource(1)).Perm(len(distinct)) {
		distinct[i] = float64(v) * 0.37
	}
	for _, set := range []struct {
		name   string
		scores []float64
	}{
		{"distinct", distinct},
		{"equal", make([]float64, 1<<20)},
	} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rankEdges(set.scores, 1)
			}
		})
	}
}

func BenchmarkRandomReduce(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Random{Seed: 1}).Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResultDelta(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 1)
	res, err := (Random{Seed: 1}).Reduce(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.Delta()
	}
}

// BenchmarkCRRReduceExactMSBFS times a full exact-betweenness CRR
// reduction, Phase 1 on the batched MS-BFS edge-dependency fold, single
// worker.
func BenchmarkCRRReduceExactMSBFS(b *testing.B) {
	g := gen.BarabasiAlbert(1000, 4, 1)
	g.CSR()
	c := CRR{Seed: 1, Betweenness: centrality.Options{Workers: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reduce(g, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
