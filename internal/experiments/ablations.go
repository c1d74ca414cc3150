package experiments

import (
	"fmt"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/matching"
	"edgeshed/internal/tasks"
)

// runAblationSampling compares exact Brandes against source-sampled
// betweenness inside CRR Phase 1: reduction quality (Δ), top-k utility and
// time (DESIGN.md §5.1).
func runAblationSampling(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	task := tasks.TopKTask{}
	tbl := newTable(
		fmt.Sprintf("Ablation 1 (ca-GrQc stand-in, |V|=%d, p=0.3): CRR betweenness sampling", g.NumNodes()),
		"variant", "avg delta", "top-k utility", "time (s)")
	variants := []struct {
		name string
		opt  centrality.Options
	}{
		{"exact", centrality.Options{}},
		{"samples=256", centrality.Options{Samples: 256, Seed: cfg.Seed + 20}},
		{"samples=64", centrality.Options{Samples: 64, Seed: cfg.Seed + 20}},
		{"samples=16", centrality.Options{Samples: 16, Seed: cfg.Seed + 20}},
	}
	for _, v := range variants {
		var res *core.Result
		dur, err := timed(func() error {
			var rerr error
			res, rerr = core.CRR{Seed: cfg.Seed + 1, Betweenness: v.opt}.Reduce(g, 0.3)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(v.name, f4(res.AvgDelta()), f3(task.Utility(g, res.Reduced)), fsec(dur))
	}
	return cfg.render(tbl)
}

// runAblationOrder compares BM2 Phase-1 edge scan orders (DESIGN.md §5.5).
func runAblationOrder(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Ablation 4 (ca-GrQc stand-in, |V|=%d): BM2 b-matching edge order", g.NumNodes()),
		"p", "input delta", "scarce-first delta", "dense-first delta")
	for _, p := range []float64{0.7, 0.5, 0.3} {
		row := []string{f3(p)}
		for _, o := range []matching.EdgeOrder{matching.InputOrder, matching.ScarceFirst, matching.DenseFirst} {
			res, err := (core.BM2{Order: o}).Reduce(g, p)
			if err != nil {
				return err
			}
			row = append(row, f4(res.Delta()))
		}
		tbl.addRow(row...)
	}
	return cfg.render(tbl)
}

// runAblationImportance tests the paper's argument for betweenness as the
// Phase 1 ranking: compare it with a degree-product proxy and pure random
// ranking (DESIGN.md §5.6).
func runAblationImportance(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	task := tasks.TopKTask{}
	tbl := newTable(
		fmt.Sprintf("Ablation 6 (ca-GrQc stand-in, |V|=%d, p=0.3): CRR Phase-1 importance", g.NumNodes()),
		"importance", "avg delta", "top-k utility", "SP-dist TVD", "time (s)")
	sp := tasks.SPDistanceTask{Seed: cfg.Seed + 21}
	for _, im := range []core.Importance{core.ImportanceBetweenness, core.ImportanceDegreeProduct, core.ImportanceRandom} {
		var res *core.Result
		dur, err := timed(func() error {
			var rerr error
			res, rerr = core.CRR{
				Seed:        cfg.Seed + 1,
				Importance:  im,
				Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers, cfg.Batch),
			}.Reduce(g, 0.3)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(im.String(), f4(res.AvgDelta()),
			f3(task.Utility(g, res.Reduced)),
			f4(sp.Error(g, res.Reduced)), fsec(dur))
	}
	return cfg.render(tbl)
}

// runAblationRewiring isolates the value of CRR Phase 2 across p: pure
// centrality ranking (Steps < 0) vs the default [10·P] rewiring budget.
func runAblationRewiring(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	bopt := betweennessOptions(g, cfg.Seed+77, cfg.Workers, cfg.Batch)
	tbl := newTable(
		fmt.Sprintf("Ablation 5 (ca-GrQc stand-in, |V|=%d): CRR rewiring on/off", g.NumNodes()),
		"p", "phase1-only delta", "full CRR delta", "improvement")
	for _, p := range cfg.ps() {
		off, err := (core.CRR{Seed: cfg.Seed + 1, Steps: -1, Betweenness: bopt}).Reduce(g, p)
		if err != nil {
			return err
		}
		on, err := (core.CRR{Seed: cfg.Seed + 1, Betweenness: bopt}).Reduce(g, p)
		if err != nil {
			return err
		}
		improvement := 0.0
		if off.Delta() > 0 {
			improvement = 1 - on.Delta()/off.Delta()
		}
		tbl.addRow(f3(p), f4(off.Delta()), f4(on.Delta()), f3(improvement))
	}
	return cfg.render(tbl)
}
