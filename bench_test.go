package edgeshed

// One benchmark per paper table and figure (DESIGN.md §3), plus the ablation
// benches of DESIGN.md §5. Each bench times the operation the corresponding
// artifact measures, on scaled dataset stand-ins built outside the timer.
//
// Run all:  go test -bench=. -benchmem
// Run one:  go test -bench=BenchmarkTable3 -benchmem

import (
	"fmt"
	"testing"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/dataset"
	"edgeshed/internal/embed"
	"edgeshed/internal/graph"
	"edgeshed/internal/matching"
	"edgeshed/internal/tasks"
	"edgeshed/internal/uds"
)

// benchScale keeps bench graphs laptop-instant; scale 1 would reproduce the
// paper's full sizes.
const benchScale = 32

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	scale := benchScale
	if name == "com-LiveJournal" {
		scale *= 16
	}
	g, err := spec.Build(scale, spec.DefaultSeed)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchReducers() []core.Reducer {
	return []core.Reducer{
		uds.Reducer{},
		core.CRR{Seed: 1},
		core.BM2{},
	}
}

// BenchmarkFig4StepsSweep regenerates Figure 4: CRR reduction at varying
// rewiring budgets x (steps = [x·P]) at p = 0.5 on ca-GrQc.
func BenchmarkFig4StepsSweep(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, x := range []float64{1, 4, 10, 14} {
		b.Run(fmt.Sprintf("x=%.0f", x), func(b *testing.B) {
			var avgDelta float64
			for i := 0; i < b.N; i++ {
				res, err := (core.CRR{Seed: 1, StepsFactor: x}).Reduce(g, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				avgDelta = res.AvgDelta()
			}
			b.ReportMetric(avgDelta, "avg-delta")
		})
	}
}

// BenchmarkFig5ErrorBounds regenerates Figure 5(a)-(b): measured average
// discrepancy against the Theorem 1/2 bounds across p.
func BenchmarkFig5ErrorBounds(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, p := range []float64{0.9, 0.5, 0.1} {
		b.Run(fmt.Sprintf("p=%.1f", p), func(b *testing.B) {
			var crrErr, bm2Err float64
			for i := 0; i < b.N; i++ {
				crrRes, err := (core.CRR{Seed: 1}).Reduce(g, p)
				if err != nil {
					b.Fatal(err)
				}
				bm2Res, err := (core.BM2{}).Reduce(g, p)
				if err != nil {
					b.Fatal(err)
				}
				crrErr, bm2Err = crrRes.AvgDisPerNode(), bm2Res.AvgDisPerNode()
			}
			b.ReportMetric(crrErr/core.CRRBound(g, p), "crr-err/bound")
			b.ReportMetric(bm2Err/core.BM2Bound(g, p), "bm2-err/bound")
		})
	}
}

// BenchmarkFig6VertexDegree regenerates Figures 5(c)-(d)/6: degree
// distribution extraction and comparison on reduced email-Enron.
func BenchmarkFig6VertexDegree(b *testing.B) {
	g := benchGraph(b, "email-Enron")
	for _, r := range benchReducers() {
		res, err := r.Reduce(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		orig := analysis.DegreeDistribution(g, 300)
		b.Run(r.Name(), func(b *testing.B) {
			var tvd float64
			for i := 0; i < b.N; i++ {
				tvd = tasks.TVD(orig, analysis.DegreeDistribution(res.Reduced, 300))
			}
			b.ReportMetric(tvd, "degree-tvd")
		})
	}
}

// BenchmarkFig7SPDistance regenerates Figure 7: shortest-path distance
// distribution of reduced graphs.
func BenchmarkFig7SPDistance(b *testing.B) {
	benchProfileTask(b, func(p *analysis.DistanceProfile) []float64 { return p.Distribution() })
}

// BenchmarkFig10HopPlot regenerates Figure 10: hop-plot of reduced graphs.
func BenchmarkFig10HopPlot(b *testing.B) {
	benchProfileTask(b, func(p *analysis.DistanceProfile) []float64 { return p.HopPlot() })
}

func benchProfileTask(b *testing.B, series func(*analysis.DistanceProfile) []float64) {
	b.Helper()
	g := benchGraph(b, "ca-GrQc")
	orig := series(analysis.NewDistanceProfile(g, analysis.ProfileOptions{}))
	for _, r := range benchReducers() {
		res, err := r.Reduce(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name(), func(b *testing.B) {
			var tvd float64
			for i := 0; i < b.N; i++ {
				red := series(analysis.NewDistanceProfile(res.Reduced, analysis.ProfileOptions{}))
				tvd = tasks.TVD(orig, red)
			}
			b.ReportMetric(tvd, "tvd")
		})
	}
}

// BenchmarkFig8Betweenness regenerates Figure 8: betweenness centrality by
// degree on reduced graphs.
func BenchmarkFig8Betweenness(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, r := range benchReducers() {
		res, err := r.Reduce(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.MeanByDegree(g, centrality.NodeBetweenness(res.Reduced, centrality.Options{}))
			}
		})
	}
}

// BenchmarkFig9Clustering regenerates Figure 9: clustering coefficient by
// degree on reduced graphs.
func BenchmarkFig9Clustering(b *testing.B) {
	g := benchGraph(b, "ca-HepPh")
	for _, r := range benchReducers() {
		res, err := r.Reduce(g, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name(), func(b *testing.B) {
			var err float64
			for i := 0; i < b.N; i++ {
				err = (tasks.ClusteringTask{}).Error(g, res.Reduced)
			}
			b.ReportMetric(err, "cc-gap")
		})
	}
}

// BenchmarkTable3ReductionTime regenerates Table III: reduction time per
// method, dataset and p. This is the paper's headline efficiency claim:
// expect BM2 ≪ CRR ≪ UDS, with the UDS gap widening as p falls.
func BenchmarkTable3ReductionTime(b *testing.B) {
	for _, name := range []string{"ca-GrQc", "email-Enron"} {
		g := benchGraph(b, name)
		for _, r := range benchReducers() {
			for _, p := range []float64{0.9, 0.5, 0.1} {
				b.Run(fmt.Sprintf("%s/%s/p=%.1f", name, r.Name(), p), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := r.Reduce(g, p); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable4TotalTimeHeavy regenerates Table IV: reduction plus a heavy
// analysis task (betweenness) on ca-GrQc.
func BenchmarkTable4TotalTimeHeavy(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, r := range benchReducers() {
		b.Run(r.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := r.Reduce(g, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				centrality.NodeBetweenness(res.Reduced, centrality.Options{})
			}
		})
	}
}

// BenchmarkTable5TotalTimeLight regenerates Table V: reduction plus a light
// analysis task (top-k PageRank) on ca-GrQc.
func BenchmarkTable5TotalTimeLight(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, r := range benchReducers() {
		b.Run(r.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := r.Reduce(g, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				pr := analysis.PageRank(res.Reduced, analysis.PageRankOptions{})
				analysis.TopK(pr, g.NumNodes()/10)
			}
		})
	}
}

// BenchmarkTable6AnalysisHeavy regenerates Table VI: heavy analysis time on
// already-reduced email-Enron graphs (reduction excluded).
func BenchmarkTable6AnalysisHeavy(b *testing.B) {
	g := benchGraph(b, "email-Enron")
	for _, r := range benchReducers() {
		for _, p := range []float64{0.9, 0.1} {
			res, err := r.Reduce(g, p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%.1f", r.Name(), p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					analysis.NewDistanceProfile(res.Reduced, analysis.ProfileOptions{Sources: 256, Seed: 5})
				}
			})
		}
	}
}

// BenchmarkTable7AnalysisLight regenerates Table VII: light analysis time on
// already-reduced email-Enron graphs.
func BenchmarkTable7AnalysisLight(b *testing.B) {
	g := benchGraph(b, "email-Enron")
	for _, r := range benchReducers() {
		for _, p := range []float64{0.9, 0.1} {
			res, err := r.Reduce(g, p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%.1f", r.Name(), p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					analysis.LocalClustering(res.Reduced, 0)
				}
			})
		}
	}
}

// BenchmarkTable8TopK regenerates Table VIII: top-10% query utility on the
// collaboration stand-ins.
func BenchmarkTable8TopK(b *testing.B) {
	benchTopK(b, "ca-GrQc")
}

// BenchmarkTable9TopKLarge regenerates Table IX on the email stand-in (the
// com-LiveJournal column uses the harness, which scales it separately).
func BenchmarkTable9TopKLarge(b *testing.B) {
	benchTopK(b, "email-Enron")
}

func benchTopK(b *testing.B, name string) {
	b.Helper()
	g := benchGraph(b, name)
	task := tasks.TopKTask{}
	for _, r := range benchReducers() {
		for _, p := range []float64{0.9, 0.1} {
			res, err := r.Reduce(g, p)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/p=%.1f", r.Name(), p), func(b *testing.B) {
				var util float64
				for i := 0; i < b.N; i++ {
					util = task.Utility(g, res.Reduced)
				}
				b.ReportMetric(util, "utility")
			})
		}
	}
}

// BenchmarkTable10LinkPrediction regenerates Table X: link-prediction
// utility via node2vec + K-means on 2-hop pairs.
func BenchmarkTable10LinkPrediction(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	task := tasks.LinkPredictionTask{
		Walk:     embed.WalkConfig{WalksPerNode: 5, WalkLength: 20, Seed: 8},
		SGNS:     embed.SGNSConfig{Dim: 32, Epochs: 1, Seed: 9},
		MaxPairs: 10000,
		Seed:     10,
	}
	for _, r := range benchReducers() {
		res, err := r.Reduce(g, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name(), func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				util = task.Utility(g, res.Reduced)
			}
			b.ReportMetric(util, "utility")
		})
	}
}

// BenchmarkAblationSampledBetweenness times CRR Phase 1 with exact vs
// sampled centrality (DESIGN.md §5.1).
func BenchmarkAblationSampledBetweenness(b *testing.B) {
	g := benchGraph(b, "email-Enron")
	for _, samples := range []int{0, 256, 64} {
		name := "exact"
		if samples > 0 {
			name = fmt.Sprintf("samples=%d", samples)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				crr := core.CRR{Seed: 1, Betweenness: centrality.Options{Samples: samples, Seed: 2}}
				if _, err := crr.Reduce(g, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBMatchOrder compares BM2 Phase-1 edge scan orders
// (DESIGN.md §5.5).
func BenchmarkAblationBMatchOrder(b *testing.B) {
	g := benchGraph(b, "ca-GrQc")
	for _, o := range []matching.EdgeOrder{matching.InputOrder, matching.ScarceFirst, matching.DenseFirst} {
		b.Run(o.String(), func(b *testing.B) {
			var delta float64
			for i := 0; i < b.N; i++ {
				res, err := (core.BM2{Order: o}).Reduce(g, 0.5)
				if err != nil {
					b.Fatal(err)
				}
				delta = res.Delta()
			}
			b.ReportMetric(delta, "delta")
		})
	}
}
