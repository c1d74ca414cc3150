package tasks

import (
	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/community"
	"edgeshed/internal/embed"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// Suite bundles the paper's seven evaluation tasks (plus the
// label-propagation link-prediction variant) into one configurable runner,
// so harnesses and tools evaluate a reduction consistently.
type Suite struct {
	// Sources samples BFS/betweenness sources on large graphs; 0 = exact.
	Sources int
	// MaxPairs caps 2-hop candidate pairs for link prediction; 0 = all.
	MaxPairs int
	// Seed drives all sampling inside the suite.
	Seed int64
	// SkipEmbedding drops the node2vec link-prediction row (the most
	// expensive task) when speed matters.
	SkipEmbedding bool
	// Workers is the parallelism threaded through every task kernel
	// (profiles, clustering, betweenness, PageRank, and node2vec's two
	// sides); 0 means GOMAXPROCS.
	// Every kernel follows the internal/par determinism discipline, so the
	// measurements are bit-identical at any worker count.
	Workers int
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, Evaluate reports a "suite.evaluate" span
	// with one "task:<name>" child per row, and threads the span into every
	// instrumented task kernel. Measurements stay bit-identical with Obs on
	// or off, at any worker count.
	Obs *obs.Span
}

// Measurement is one task's outcome.
type Measurement struct {
	// Task is the row name, e.g. "vertex degree".
	Task string
	// Value is the metric value.
	Value float64
	// HigherIsBetter tells renderers which direction is good: true for
	// utilities, false for errors/distances.
	HigherIsBetter bool
	// Meaning is a one-line description of the metric.
	Meaning string
}

// Evaluate runs every configured task between the original and reduced
// graphs (same node-id space) and returns the measurements in the paper's
// task order.
func (s Suite) Evaluate(orig, red *graph.Graph) []Measurement {
	sp := s.Obs.Start("suite.evaluate")
	defer sp.End()
	total := int64(8) // 6 fixed rows + node2vec + label-prop
	if s.SkipEmbedding {
		total--
	}
	sp.SetTotal(total)
	// task wraps one row in a "task:<name>" child span and advances the
	// suite's unit progress. The name concat runs only when recording, so
	// disabled evaluation allocates nothing here.
	task := func(name string, f func(p *obs.Span) Measurement) Measurement {
		var tsp *obs.Span
		if sp.Enabled() {
			tsp = sp.Start("task:" + name)
		}
		m := f(tsp)
		tsp.End()
		if sp.Enabled() {
			// Each row lands on the quality timeline as "suite.<task>" with
			// the measurement's own good direction, so cmd/obsreport can
			// trend and gate task fidelity across runs.
			dir := obs.DirLower
			if m.HigherIsBetter {
				dir = obs.DirHigher
			}
			sp.Quality("suite."+m.Task, dir).Record(0, m.Value)
		}
		sp.Done(1)
		return m
	}
	out := []Measurement{
		task("vertex degree", func(p *obs.Span) Measurement {
			return Measurement{"vertex degree", (DegreeTask{Cap: 300}).Error(orig, red), false, "TVD, lower is better"}
		}),
		task("shortest-path distance", func(p *obs.Span) Measurement {
			return Measurement{"shortest-path distance", (SPDistanceTask{Sources: s.Sources, Seed: s.Seed, Workers: s.Workers, Obs: p}).Error(orig, red), false, "TVD, lower is better"}
		}),
		task("betweenness centrality", func(p *obs.Span) Measurement {
			bopt := centrality.Options{Samples: s.Sources, Seed: s.Seed, Workers: s.Workers, Obs: p}
			return Measurement{"betweenness centrality", (BetweennessTask{Options: bopt}).Error(orig, red), false, "relative L1, lower is better"}
		}),
		task("clustering coefficient", func(p *obs.Span) Measurement {
			return Measurement{"clustering coefficient", (ClusteringTask{Workers: s.Workers}).Error(orig, red), false, "mean |gap|, lower is better"}
		}),
		task("hop-plot", func(p *obs.Span) Measurement {
			return Measurement{"hop-plot", (HopPlotTask{Sources: s.Sources, Seed: s.Seed, Workers: s.Workers, Obs: p}).Error(orig, red), false, "mean |gap|, lower is better"}
		}),
		task("top-10% query", func(p *obs.Span) Measurement {
			propt := analysis.PageRankOptions{Workers: s.Workers, Obs: p}
			return Measurement{"top-10% query", (TopKTask{PageRank: propt}).Utility(orig, red), true, "utility, higher is better"}
		}),
	}
	if !s.SkipEmbedding {
		out = append(out, task("link prediction (node2vec)", func(p *obs.Span) Measurement {
			return Measurement{
				"link prediction (node2vec)",
				(LinkPredictionTask{
					Walk:     embed.WalkConfig{WalksPerNode: 5, WalkLength: 20, Seed: s.Seed},
					SGNS:     embed.SGNSConfig{Dim: 32, Epochs: 1, Seed: s.Seed + 1},
					MaxPairs: s.MaxPairs,
					Seed:     s.Seed + 2,
					Workers:  s.Workers,
				}).Utility(orig, red),
				true, "utility, higher is better",
			}
		}))
	}
	out = append(out, task("link prediction (label prop)", func(p *obs.Span) Measurement {
		return Measurement{
			"link prediction (label prop)",
			(LabelPropagationLinkTask{
				Propagation: community.LabelPropagationOptions{Seed: s.Seed + 3},
				MaxPairs:    s.MaxPairs,
				Seed:        s.Seed + 4,
			}).Utility(orig, red),
			true, "utility, higher is better",
		}
	}))
	return out
}
