// Command shed reduces an edge-list graph with one of the paper's methods.
//
// Usage:
//
//	shed -in graph.txt -out reduced.txt -method crr -p 0.5
//
// The input is a SNAP-style whitespace edge list ('#' comments allowed) or
// a .esc packed-CSR file (see cmd/gpack) — packed
// input mmaps in without per-edge parsing and sheds bit-identically to the
// text path. The output preserves the original node labels. Reduction statistics (edge
// counts, Δ, the theorem bound) are printed to stderr, and -stats-json
// writes them machine-readable. The shared observability flags (-metrics,
// -profile, -trace, -quiet, -v, -log-json) capture a JSON run manifest,
// runtime profiles and execution traces; -debug-addr additionally serves
// the run's live counters, span progress and pprof handlers over HTTP for
// the run's duration, and -sample-interval records a runtime timeline
// into the manifest. See internal/obs and DESIGN.md §8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
	"edgeshed/internal/uds"
)

// shedOpts carries the command's flag values into run.
type shedOpts struct {
	in        string
	out       string
	method    string
	ps        string
	steps     int
	samples   int
	workers   int
	batch     int
	seed      int64
	statsJSON string
}

func main() {
	var opt shedOpts
	flag.StringVar(&opt.in, "in", "", "input graph file: edge list, or .esc packed CSR (required)")
	flag.StringVar(&opt.out, "out", "", "output edge-list file (default: stdout); with multiple -p values a .pN.NN suffix is inserted")
	flag.StringVar(&opt.method, "method", "crr", "reduction method: crr, bm2, random, uds, forestfire, spanningforest, weighted")
	flag.StringVar(&opt.ps, "p", "0.5", "edge preservation ratio(s) in (0,1), comma-separated; CRR sweeps share one betweenness computation")
	flag.IntVar(&opt.steps, "steps", 0, "CRR rewiring steps (0 = paper default [10*P], <0 = off)")
	flag.IntVar(&opt.samples, "samples", 0, "betweenness source samples (0 = exact)")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.workers, "workers", 0, "worker goroutines for the betweenness kernel and CRR multi-ratio sweeps (0 = GOMAXPROCS); output is identical at any count")
	flag.IntVar(&opt.batch, "batch", 0, "MS-BFS sources per betweenness batch, 1..64 (0 or out of range = the full 64-wide word); output is identical at any width")
	flag.StringVar(&opt.statsJSON, "stats-json", "", "write reduction statistics (edge counts, Δ, theorem bounds) as JSON to this file")
	cli := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	sess, err := cli.Start("shed")
	if err != nil {
		fmt.Fprintln(os.Stderr, "shed:", err)
		os.Exit(1)
	}
	runErr := obs.Run(sess, func() error { return run(opt, sess) })
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "shed:", runErr)
		os.Exit(1)
	}
}

// shedStats is the -stats-json document: the input graph's shape plus one
// row per preservation ratio.
type shedStats struct {
	// Input is the input edge-list path.
	Input string `json:"input"`
	// Method is the reducer's name (e.g. "CRR").
	Method string `json:"method"`
	// Nodes and Edges are the input graph's size.
	Nodes int `json:"nodes"`
	// Edges is |E| of the input graph.
	Edges int `json:"edges"`
	// Seed is the run's random seed.
	Seed int64 `json:"seed"`
	// Rows holds one entry per requested ratio, aligned with -p order.
	Rows []shedStatsRow `json:"rows"`
}

// shedStatsRow is one ratio's outcome in a shedStats document.
type shedStatsRow struct {
	// P is the requested preservation ratio.
	P float64 `json:"p"`
	// KeptEdges is |E'| of the reduction.
	KeptEdges int `json:"kept_edges"`
	// KeptFraction is |E'| / |E|.
	KeptFraction float64 `json:"kept_fraction"`
	// Delta is the total degree discrepancy Δ = Σ_u |dis(u)|.
	Delta float64 `json:"delta"`
	// AvgDisPerNode is Δ / |V|.
	AvgDisPerNode float64 `json:"avg_dis_per_node"`
	// BoundName names the theorem bound in Bound, when the method has one.
	BoundName string `json:"bound_name,omitempty"`
	// Bound is the theorem's bound on avg |dis| (CRR: Theorem 1, BM2:
	// Theorem 2); 0 and absent for other methods.
	Bound float64 `json:"bound,omitempty"`
	// Headroom is Bound − AvgDisPerNode, the margin by which the run beat
	// its theorem; 0 and absent without a bound.
	Headroom float64 `json:"headroom,omitempty"`
}

// statsRow builds one -stats-json row from a reduction's quality summary.
// The summary is the same core.QualityOf derivation the kernels record
// onto the manifest's quality timeline, so the two outputs agree
// field-for-field by construction (pinned by TestStatsMatchManifestQuality).
func statsRow(q core.RatioQuality) shedStatsRow {
	return shedStatsRow{
		P:             q.P,
		KeptEdges:     q.KeptEdges,
		KeptFraction:  q.KeptFraction,
		Delta:         q.Delta,
		AvgDisPerNode: q.AvgDisPerNode,
		BoundName:     q.BoundName,
		Bound:         q.Bound,
		Headroom:      q.Headroom,
	}
}

func run(opt shedOpts, sess *obs.Session) error {
	if opt.in == "" {
		return fmt.Errorf("-in is required")
	}
	ps, err := parsePs(opt.ps)
	if err != nil {
		return err
	}
	load := sess.Root().Start("load")
	g, rm, err := graph.LoadFileObs(opt.in, load)
	load.End()
	if err != nil {
		return err
	}
	sess.SetGraph(g.NumNodes(), g.NumEdges())
	sess.SetSeed(opt.seed)
	sess.SetWorkers(opt.workers)
	sess.Logf("loaded %s: |V|=%d |E|=%d", opt.in, g.NumNodes(), g.NumEdges())

	var reducer core.Reducer
	bopt := centrality.Options{Samples: opt.samples, Seed: opt.seed + 1, Workers: opt.workers, Batch: opt.batch}
	switch strings.ToLower(opt.method) {
	case "crr":
		reducer = core.CRR{Seed: opt.seed, Steps: opt.steps, Betweenness: bopt, Workers: opt.workers, Obs: sess.Root()}
	case "bm2":
		reducer = core.BM2{Obs: sess.Root()}
	case "random":
		reducer = core.Random{Seed: opt.seed}
	case "forestfire":
		reducer = core.ForestFire{Seed: opt.seed}
	case "spanningforest":
		reducer = core.SpanningForest{Seed: opt.seed}
	case "weighted":
		reducer = core.WeightedSample{Seed: opt.seed}
	case "uds":
		reducer = uds.Reducer{
			Summarizer: uds.Summarizer{Betweenness: bopt, Seed: opt.seed},
			ExpandSeed: opt.seed + 2,
		}
	default:
		return fmt.Errorf("unknown method %q (want crr, bm2, random, uds, forestfire, spanningforest or weighted)", opt.method)
	}

	// Reduce at every requested ratio; CRR shares its Phase 1 betweenness
	// across the sweep.
	start := time.Now()
	var results []*core.Result
	if crr, ok := reducer.(core.CRR); ok && len(ps) > 1 {
		results, err = crr.Sweep(g, ps)
		if err != nil {
			return err
		}
	} else {
		for _, p := range ps {
			res, err := reducer.Reduce(g, p)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
	}
	dur := time.Since(start)

	stats := &shedStats{
		Input:  opt.in,
		Method: reducer.Name(),
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
		Seed:   opt.seed,
	}
	write := sess.Root().Start("write")
	for i, res := range results {
		p := ps[i]
		row := statsRow(core.QualityOf(res, reducer.Name()))
		sess.Logf("%s p=%.3f: |E'|=%d (%.1f%% of |E|), Δ=%.3f, avg |dis|=%.4f",
			reducer.Name(), p, row.KeptEdges, 100*row.KeptFraction, row.Delta, row.AvgDisPerNode)
		switch row.BoundName {
		case "theorem1":
			sess.Logf("Theorem 1 bound on avg |dis|: %.4f", row.Bound)
		case "theorem2":
			sess.Logf("Theorem 2 bound on avg |dis|: %.4f", row.Bound)
		}
		stats.Rows = append(stats.Rows, row)
		switch {
		case opt.out == "":
			if err := graph.WriteEdgeList(os.Stdout, res.Reduced, rm); err != nil {
				return err
			}
		default:
			if err := graph.SaveFile(outPath(opt.out, p, len(ps) > 1), res.Reduced, rm); err != nil {
				return err
			}
		}
	}
	write.End()
	if opt.statsJSON != "" {
		if err := writeStats(opt.statsJSON, stats); err != nil {
			return err
		}
	}
	sess.Logf("total time: %s", dur)
	return nil
}

// writeStats marshals the stats document to path, newline-terminated.
func writeStats(path string, stats *shedStats) error {
	data, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling -stats-json: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parsePs parses one or more comma-separated preservation ratios.
func parsePs(s string) ([]float64, error) {
	var ps []float64
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -p entry %q: %v", part, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// outPath inserts a .pN.NN suffix before the extension when writing a
// multi-ratio sweep.
func outPath(out string, p float64, multi bool) string {
	if !multi {
		return out
	}
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.p%.2f%s", strings.TrimSuffix(out, ext), p, ext)
}
