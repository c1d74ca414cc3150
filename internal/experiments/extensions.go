package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/stream"
	"edgeshed/internal/tasks"
	"edgeshed/internal/uds"
)

// runHeadline quantifies the paper's abstract claims on the stand-ins:
// "up to 65% higher accuracy ... while consuming only 26%-57% running
// time". It reports, per dataset, the largest top-k accuracy gain of
// CRR/BM2 over UDS across p, and the reduction-time ratio at p = 0.5.
func runHeadline(cfg Config) error {
	task := tasks.TopKTask{}
	tbl := newTable(
		"Headline claims (abstract): accuracy gain over UDS and time ratio",
		"dataset", "max CRR-UDS gain", "max BM2-UDS gain", "CRR/UDS time", "BM2/UDS time")
	for _, name := range smallDatasets {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		reducers := cfg.reducerSet(g)
		udsR, crrR, bm2R := reducers[0], reducers[1], reducers[2]
		if udsR == nil {
			return fmt.Errorf("headline experiment needs the UDS comparator (unset SkipUDS)")
		}
		var gainCRR, gainBM2 float64
		for _, p := range cfg.ps() {
			var utils [3]float64
			ur := udsR.(uds.Reducer)
			_, sum, err := ur.Summarize(g, p)
			if err != nil {
				return err
			}
			utils[0] = task.UtilityWithScores(g, sum.PageRankScores(0.85, 50))
			for i, r := range []core.Reducer{crrR, bm2R} {
				res, err := r.Reduce(g, p)
				if err != nil {
					return err
				}
				utils[i+1] = task.Utility(g, res.Reduced)
			}
			if d := utils[1] - utils[0]; d > gainCRR {
				gainCRR = d
			}
			if d := utils[2] - utils[0]; d > gainBM2 {
				gainBM2 = d
			}
		}
		timeOf := func(r core.Reducer) time.Duration {
			d, _ := timed(func() error {
				_, err := r.Reduce(g, 0.5)
				return err
			})
			return d
		}
		udsT := timeOf(udsR)
		tbl.addRow(name,
			fmt.Sprintf("+%.0f%%", 100*gainCRR),
			fmt.Sprintf("+%.0f%%", 100*gainBM2),
			fmt.Sprintf("%.0f%%", 100*timeOf(crrR).Seconds()/udsT.Seconds()),
			fmt.Sprintf("%.0f%%", 100*timeOf(bm2R).Seconds()/udsT.Seconds()))
	}
	return cfg.render(tbl)
}

// runBaselines compares CRR and BM2 against the simplification baselines
// (uniform Random, ForestFire, SpanningForest, WeightedSample) on Δ and
// top-k utility at p = 0.5 and 0.3.
func runBaselines(cfg Config) error {
	task := tasks.TopKTask{}
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	reducers := []core.Reducer{
		core.CRR{Seed: cfg.Seed + 1, Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers, cfg.Batch)},
		core.BM2{},
		core.Random{Seed: cfg.Seed + 2},
		core.ForestFire{Seed: cfg.Seed + 3},
		core.SpanningForest{Seed: cfg.Seed + 4},
		core.WeightedSample{Seed: cfg.Seed + 5},
	}
	for _, p := range []float64{0.5, 0.3} {
		tbl := newTable(
			fmt.Sprintf("Baselines (ca-GrQc stand-in, |V|=%d, p=%.1f): degree-preserving vs sampling", g.NumNodes(), p),
			"method", "|E'|", "delta", "avg |dis|", "top-k utility")
		for _, r := range reducers {
			res, err := r.Reduce(g, p)
			if err != nil {
				return err
			}
			tbl.addRow(r.Name(),
				fmt.Sprint(res.Reduced.NumEdges()),
				f4(res.Delta()), f4(res.AvgDisPerNode()),
				f3(task.Utility(g, res.Reduced)))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// runMemory quantifies the paper's first motivation — storage saving — by
// measuring the in-memory footprint of each reduced graph against its
// original across p.
func runMemory(cfg Config) error {
	for _, name := range []string{"email-Enron", "com-LiveJournal"} {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		tbl := newTable(
			fmt.Sprintf("Memory footprint (%s stand-in, |V|=%d |E|=%d, original %s)", name, g.NumNodes(), g.NumEdges(), fmtBytes(g.Bytes())),
			"p", "CRR bytes", "CRR saving", "BM2 bytes", "BM2 saving")
		for _, p := range []float64{0.5, 0.3, 0.1} {
			crrRes, err := (core.CRR{Seed: cfg.Seed + 1, Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers, cfg.Batch)}).Reduce(g, p)
			if err != nil {
				return err
			}
			bm2Res, err := (core.BM2{}).Reduce(g, p)
			if err != nil {
				return err
			}
			saving := func(r *core.Result) string {
				return fmt.Sprintf("%.0f%%", 100*(1-float64(r.Reduced.Bytes())/float64(g.Bytes())))
			}
			tbl.addRow(f3(p),
				fmtBytes(crrRes.Reduced.Bytes()), saving(crrRes),
				fmtBytes(bm2Res.Reduced.Bytes()), saving(bm2Res))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// runQuality evaluates every task of the suite for each method at one
// glance: the whole quality half of the evaluation in a single table per p.
func runQuality(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	suite := tasks.Suite{MaxPairs: 20000, Seed: cfg.Seed + 41, Workers: cfg.Workers}
	for _, p := range []float64{0.5, 0.3} {
		reds, err := cfg.reduceAll(g, p)
		if err != nil {
			return err
		}
		headers := []string{"task"}
		for _, rd := range reds {
			headers = append(headers, rd.name)
		}
		headers = append(headers, "direction")
		tbl := newTable(
			fmt.Sprintf("Quality suite (ca-GrQc stand-in, |V|=%d, p=%.1f): all tasks × all methods", g.NumNodes(), p),
			headers...)
		var rows [][]tasks.Measurement
		for _, rd := range reds {
			rows = append(rows, suite.Evaluate(g, rd.g))
		}
		for i := range rows[0] {
			cells := []string{rows[0][i].Task}
			for _, ms := range rows {
				cells = append(cells, f4(ms[i].Value))
			}
			dir := "lower better"
			if rows[0][i].HigherIsBetter {
				dir = "higher better"
			}
			cells = append(cells, dir)
			tbl.addRow(cells...)
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// runStream evaluates the streaming extension: edges of the email-Enron
// stand-in arrive in random order; the stream shedder's Δ and top-k utility
// are compared against offline BM2 (full-graph access) and reservoir
// sampling (same memory).
func runStream(cfg Config) error {
	g, err := cfg.build("email-Enron")
	if err != nil {
		return err
	}
	task := tasks.TopKTask{}
	tbl := newTable(
		fmt.Sprintf("Streaming extension (email-Enron stand-in, |V|=%d |E|=%d): one-pass shedding", g.NumNodes(), g.NumEdges()),
		"p", "method", "delta", "top-k utility", "time (s)")
	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	order := append([]graph.Edge(nil), g.Edges()...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, p := range []float64{0.5, 0.3} {
		// Stream shedder.
		var snap *graph.Graph
		var delta float64
		dur, err := timed(func() error {
			s, err := stream.NewShedder(stream.Options{P: p, Seed: cfg.Seed + 32, Nodes: g.NumNodes(), Base: g})
			if err != nil {
				return err
			}
			for _, e := range order {
				if err := s.Insert(e.U, e.V); err != nil {
					return err
				}
			}
			snap = s.Snapshot()
			delta = s.Delta()
			return nil
		})
		if err != nil {
			return err
		}
		tbl.addRow(f3(p), "stream", f4(delta), f3(task.Utility(g, snap)), fsec(dur))

		// Reservoir baseline: uniform sample of the same size.
		k := snap.NumEdges()
		reservoir := append([]graph.Edge(nil), order[:k]...)
		for i := k; i < len(order); i++ {
			if j := rng.Intn(i + 1); j < k {
				reservoir[j] = order[i]
			}
		}
		resG, err := g.Subgraph(reservoir)
		if err != nil {
			return err
		}
		resRes := core.Result{Original: g, Reduced: resG, P: p}
		tbl.addRow(f3(p), "reservoir", f4(resRes.Delta()), f3(task.Utility(g, resG)), "-")

		// Offline BM2 for reference.
		bm2Res, err := (core.BM2{}).Reduce(g, p)
		if err != nil {
			return err
		}
		tbl.addRow(f3(p), "BM2 (offline)", f4(bm2Res.Delta()), f3(task.Utility(g, bm2Res.Reduced)), "-")
	}
	return cfg.render(tbl)
}
