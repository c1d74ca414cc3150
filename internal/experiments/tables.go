package experiments

import (
	"fmt"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/embed"
	"edgeshed/internal/graph"
	"edgeshed/internal/tasks"
	"edgeshed/internal/uds"
)

// runT3 reproduces Table III: graph reduction time for UDS, CRR and BM2 at
// every p on all four datasets. As in the paper, UDS is skipped on
// com-LiveJournal (its cost is prohibitive there).
func runT3(cfg Config) error {
	for _, name := range []string{"ca-GrQc", "ca-HepPh", "email-Enron", "com-LiveJournal"} {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		tbl := newTable(
			fmt.Sprintf("Table III (%s stand-in, |V|=%d |E|=%d): reduction time (s)", name, g.NumNodes(), g.NumEdges()),
			"p", "UDS", "CRR", "BM2")
		skipUDS := cfg.SkipUDS || name == "com-LiveJournal"
		for _, p := range cfg.ps() {
			row := []string{f3(p)}
			for _, r := range cfg.reducerSet(g) {
				if r == nil || (skipUDS && r.Name() == "UDS") {
					row = append(row, "-")
					continue
				}
				dur, err := timed(func() error {
					_, rerr := r.Reduce(g, p)
					return rerr
				})
				if err != nil {
					return err
				}
				row = append(row, fsec(dur))
				cfg.progress("t3 %s: %s p=%s in %s", name, r.Name(), f3(p), fsec(dur))
			}
			tbl.addRow(row...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// taskSpec names an analysis task and its runner over a single graph; the
// runner must do the full work the paper times.
type taskSpec struct {
	name string
	run  func(cfg Config, g *graph.Graph) error
}

// heavyTasks are the four high-complexity tasks of Tables IV and VI.
func heavyTasks() []taskSpec {
	return []taskSpec{
		{"Link prediction", func(cfg Config, g *graph.Graph) error {
			linkTask(cfg).Predict(g)
			return nil
		}},
		{"SP distance", func(cfg Config, g *graph.Graph) error {
			opt := analysis.ProfileOptions{Sources: profileSources(g), Seed: cfg.Seed + 5, Workers: cfg.Workers}
			analysis.NewDistanceProfile(g, opt)
			return nil
		}},
		{"Betweenness", func(cfg Config, g *graph.Graph) error {
			centrality.NodeBetweenness(g, betweennessOptions(g, cfg.Seed+6, cfg.Workers, cfg.Batch))
			return nil
		}},
		{"Hop-plot", func(cfg Config, g *graph.Graph) error {
			opt := analysis.ProfileOptions{Sources: profileSources(g), Seed: cfg.Seed + 5, Workers: cfg.Workers}
			analysis.NewDistanceProfile(g, opt).HopPlot()
			return nil
		}},
	}
}

// lightTasks are the three low-complexity tasks of Tables V and VII.
func lightTasks() []taskSpec {
	return []taskSpec{
		{"Top-k", func(cfg Config, g *graph.Graph) error {
			analysis.TopK(analysis.PageRank(g, analysis.PageRankOptions{Workers: cfg.Workers}), g.NumNodes()/10)
			return nil
		}},
		{"Vertex degree", func(cfg Config, g *graph.Graph) error {
			analysis.DegreeDistribution(g, 300)
			return nil
		}},
		{"Clustering coef", func(cfg Config, g *graph.Graph) error {
			analysis.LocalClustering(g, cfg.Workers)
			return nil
		}},
	}
}

// linkTask sizes the link-prediction pipeline for harness scale: lighter
// walks and a smaller embedding than production defaults, capped candidate
// pairs.
func linkTask(cfg Config) tasks.LinkPredictionTask {
	return tasks.LinkPredictionTask{
		Walk:     embed.WalkConfig{WalksPerNode: 5, WalkLength: 20, Seed: cfg.Seed + 8},
		SGNS:     embed.SGNSConfig{Dim: 32, Epochs: 1, Seed: cfg.Seed + 9},
		MaxPairs: 20000,
		Seed:     cfg.Seed + 10,
		Workers:  cfg.Workers,
	}
}

// totalTimeTable implements the shared shape of Tables IV and V: the "T"
// line times each task on the original graph; each p row times reduction
// plus the task on the reduced graph.
func totalTimeTable(cfg Config, caption, datasetName string, specs []taskSpec, ps []float64) error {
	g, err := cfg.build(datasetName)
	if err != nil {
		return err
	}
	for _, spec := range specs {
		tbl := newTable(
			fmt.Sprintf("%s — %s (%s stand-in, |V|=%d |E|=%d): total time (s)", caption, spec.name, datasetName, g.NumNodes(), g.NumEdges()),
			"p", "UDS", "CRR", "BM2")
		tDur, err := timed(func() error { return spec.run(cfg, g) })
		if err != nil {
			return err
		}
		tbl.addRow("T", fsec(tDur), "", "")
		for _, p := range ps {
			row := []string{f3(p)}
			for _, r := range cfg.reducerSet(g) {
				if r == nil {
					row = append(row, "-")
					continue
				}
				var reduced *graph.Graph
				dur, err := timed(func() error {
					res, rerr := r.Reduce(g, p)
					if rerr != nil {
						return rerr
					}
					reduced = res.Reduced
					return spec.run(cfg, reduced)
				})
				if err != nil {
					return err
				}
				row = append(row, fsec(dur))
				cfg.progress("%s %s/%s: %s p=%s in %s", caption, datasetName, spec.name, r.Name(), f3(p), fsec(dur))
			}
			tbl.addRow(row...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// analysisTimeTable implements Tables VI and VII: time of the analysis task
// alone on the reduced graphs (reduction excluded), with the T line for the
// original.
func analysisTimeTable(cfg Config, caption, datasetName string, specs []taskSpec, ps []float64) error {
	g, err := cfg.build(datasetName)
	if err != nil {
		return err
	}
	// Reduce once per (method, p) and reuse across tasks, like the paper's
	// "the reduced graph can be reused after being generated".
	type key struct {
		method string
		p      float64
	}
	reduced := make(map[key]*graph.Graph)
	for _, p := range ps {
		for _, r := range cfg.reducerSet(g) {
			if r == nil {
				continue
			}
			res, err := r.Reduce(g, p)
			if err != nil {
				return err
			}
			reduced[key{r.Name(), p}] = res.Reduced
			cfg.progress("%s %s: reduced with %s p=%s", caption, datasetName, r.Name(), f3(p))
		}
	}
	for _, spec := range specs {
		tbl := newTable(
			fmt.Sprintf("%s — %s (%s stand-in, |V|=%d |E|=%d): analysis time on reduced graphs (s)", caption, spec.name, datasetName, g.NumNodes(), g.NumEdges()),
			"p", "UDS", "CRR", "BM2")
		tDur, err := timed(func() error { return spec.run(cfg, g) })
		if err != nil {
			return err
		}
		tbl.addRow("T", fsec(tDur), "", "")
		for _, p := range ps {
			row := []string{f3(p)}
			for _, r := range cfg.reducerSet(g) {
				if r == nil {
					row = append(row, "-")
					continue
				}
				rg := reduced[key{r.Name(), p}]
				dur, err := timed(func() error { return spec.run(cfg, rg) })
				if err != nil {
					return err
				}
				row = append(row, fsec(dur))
				cfg.progress("%s %s/%s: %s p=%s in %s", caption, datasetName, spec.name, r.Name(), f3(p), fsec(dur))
			}
			tbl.addRow(row...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

var tablePs = []float64{0.9, 0.5, 0.1}

func runT4(cfg Config) error {
	return totalTimeTable(cfg, "Table IV", "ca-GrQc", heavyTasks(), tablePs)
}

func runT5(cfg Config) error {
	return totalTimeTable(cfg, "Table V", "ca-GrQc", lightTasks(), tablePs)
}

func runT6(cfg Config) error {
	return analysisTimeTable(cfg, "Table VI", "email-Enron", heavyTasks(), tablePs)
}

func runT7(cfg Config) error {
	return analysisTimeTable(cfg, "Table VII", "email-Enron", lightTasks(), tablePs)
}

// topKTable implements Tables VIII and IX: top-10% query utility per method
// and p. UDS uses its supernode PageRank, the paper's "own processing
// method".
func topKTable(cfg Config, caption string, datasets []string, skipUDSFor map[string]bool) error {
	task := tasks.TopKTask{}
	for _, name := range datasets {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		tbl := newTable(
			fmt.Sprintf("%s (%s stand-in, |V|=%d |E|=%d): utility of top-10%%", caption, name, g.NumNodes(), g.NumEdges()),
			"p", "UDS", "CRR", "BM2")
		for _, p := range cfg.ps() {
			row := []string{f3(p)}
			for _, r := range cfg.reducerSet(g) {
				if r == nil || (skipUDSFor[name] && r.Name() == "UDS") {
					row = append(row, "-")
					continue
				}
				var util float64
				if ur, ok := r.(uds.Reducer); ok {
					_, sum, err := ur.Summarize(g, p)
					if err != nil {
						return err
					}
					util = task.UtilityWithScores(g, sum.PageRankScores(0.85, 50))
				} else {
					res, err := r.Reduce(g, p)
					if err != nil {
						return err
					}
					util = task.Utility(g, res.Reduced)
				}
				row = append(row, f3(util))
				cfg.progress("%s %s: %s p=%s utility=%s", caption, name, r.Name(), f3(p), f3(util))
			}
			tbl.addRow(row...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

func runT8(cfg Config) error {
	return topKTable(cfg, "Table VIII", []string{"ca-GrQc", "ca-HepPh"}, nil)
}

func runT9(cfg Config) error {
	return topKTable(cfg, "Table IX", []string{"email-Enron", "com-LiveJournal"},
		map[string]bool{"com-LiveJournal": true})
}

// runT10 reproduces Table X: link prediction utility (node2vec p=q=1,
// K-means k=5, 2-hop pairs) for each method across p on the three small
// datasets. Each original is embedded once; comparing its predictions with
// every reduction's through PairOverlap gives the values task.Utility would.
func runT10(cfg Config) error {
	for _, name := range smallDatasets {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		task := linkTask(cfg)
		l := task.Predict(g)
		tbl := newTable(
			fmt.Sprintf("Table X (%s stand-in, |V|=%d |E|=%d): utility of link prediction", name, g.NumNodes(), g.NumEdges()),
			"p", "UDS", "CRR", "BM2")
		for _, p := range cfg.ps() {
			row := []string{f3(p)}
			for _, r := range cfg.reducerSet(g) {
				if r == nil {
					row = append(row, "-")
					continue
				}
				res, err := r.Reduce(g, p)
				if err != nil {
					return err
				}
				row = append(row, f3(tasks.PairOverlap(l, task.Predict(res.Reduced))))
				cfg.progress("t10 %s: %s p=%s", name, r.Name(), f3(p))
			}
			tbl.addRow(row...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}
