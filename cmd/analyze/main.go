// Command analyze runs the paper's graph-analysis tasks on an edge-list
// file and prints their summaries: degree distribution, shortest-path
// profile, clustering, PageRank top-k, components, centralities and
// structural summaries.
//
// Usage:
//
//	analyze -in graph.txt -tasks degree,sp,cc,topk
//
// The shared observability flags apply (-metrics, -profile, -trace,
// -debug-addr for a live HTTP debug plane); see internal/obs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph file: edge list, or .esc packed CSR (required)")
		taskList = flag.String("tasks", "degree,sp,cc,topk,components", "comma-separated: degree, sp, hopplot, cc, topk, components, betweenness, closeness, structure")
		topPct   = flag.Float64("top", 10, "top-t%% for the topk task")
		sources  = flag.Int("sources", 0, "BFS/betweenness/closeness source samples (0 = exact)")
		seed     = flag.Int64("seed", 1, "sampling seed")
		workers  = flag.Int("workers", 0, "worker goroutines for parallel kernels (0 = GOMAXPROCS); results are identical at any count")
		batch    = flag.Int("batch", 0, "MS-BFS sources per batch for betweenness/closeness, 1..64 (0 or out of range = the full 64-wide word); results are identical at any width")
	)
	cli := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	sess, err := cli.Start("analyze")
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	runErr := obs.Run(sess, func() error { return run(os.Stdout, *in, *taskList, *topPct, *sources, *seed, *workers, *batch, sess) })
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "analyze:", runErr)
		os.Exit(1)
	}
}

func run(w io.Writer, in, taskList string, topPct float64, sources int, seed int64, workers, batch int, sess *obs.Session) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	load := sess.Root().Start("load")
	g, rm, err := graph.LoadFileObs(in, load)
	load.End()
	if err != nil {
		return err
	}
	sess.SetGraph(g.NumNodes(), g.NumEdges())
	sess.SetSeed(seed)
	sess.SetWorkers(workers)
	sess.Verbosef("loaded %s: |V|=%d |E|=%d", in, g.NumNodes(), g.NumEdges())
	fmt.Fprintf(w, "graph: |V|=%d |E|=%d avg degree=%.2f max degree=%d\n",
		g.NumNodes(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	label := func(u graph.NodeID) int64 {
		if rm != nil {
			return rm.Label(u)
		}
		return int64(u)
	}
	root := sess.Root()
	for _, task := range strings.Split(taskList, ",") {
		name := strings.TrimSpace(task)
		var tsp *obs.Span
		if root.Enabled() {
			tsp = root.Start("task:" + name)
		}
		switch name {
		case "degree":
			dist := analysis.DegreeDistribution(g, 0)
			fmt.Fprintln(w, "\nvertex degree distribution (degree: fraction):")
			printed := 0
			for d, f := range dist {
				if f == 0 {
					continue
				}
				fmt.Fprintf(w, "  %4d: %.4f\n", d, f)
				printed++
				if printed >= 20 {
					fmt.Fprintf(w, "  ... (%d more degrees)\n", nonZero(dist[d+1:]))
					break
				}
			}
		case "sp":
			prof := analysis.NewDistanceProfile(g, analysis.ProfileOptions{Sources: sources, Seed: seed, Workers: workers, Obs: tsp})
			fmt.Fprintf(w, "\nshortest paths: diameter=%d mean distance=%.3f reachable pairs=%.0f\n",
				prof.Diameter, prof.MeanDistance(), prof.ReachablePairs)
			for d, f := range prof.Distribution() {
				if f > 0 {
					fmt.Fprintf(w, "  d=%2d: %.4f\n", d, f)
				}
			}
		case "hopplot":
			prof := analysis.NewDistanceProfile(g, analysis.ProfileOptions{Sources: sources, Seed: seed, Workers: workers, Obs: tsp})
			fmt.Fprintln(w, "\nhop-plot (k: cumulative fraction):")
			for k, f := range prof.HopPlot() {
				fmt.Fprintf(w, "  k=%2d: %.4f\n", k, f)
			}
		case "cc":
			fmt.Fprintf(w, "\naverage clustering coefficient: %.4f, triangles: %d\n",
				analysis.AverageClustering(g, workers), analysis.Triangles(g, workers))
		case "topk":
			pr := analysis.PageRank(g, analysis.PageRankOptions{Workers: workers, Obs: tsp})
			k := int(float64(g.NumNodes()) * topPct / 100)
			top := analysis.TopK(pr, k)
			fmt.Fprintf(w, "\ntop-%.0f%%: %d nodes by PageRank; first 10 (label: score):\n", topPct, len(top))
			for i, u := range top {
				if i >= 10 {
					break
				}
				fmt.Fprintf(w, "  %d: %.6f\n", label(u), pr[u])
			}
		case "components":
			_, count := analysis.ConnectedComponents(g)
			lc := analysis.LargestComponent(g)
			fmt.Fprintf(w, "\nconnected components: %d; largest: %d nodes (%.1f%%)\n",
				count, len(lc), 100*float64(len(lc))/float64(g.NumNodes()))
		case "betweenness":
			opt := centrality.Options{Samples: sources, Seed: seed, Workers: workers, Batch: batch, Obs: tsp}
			bc := centrality.NodeBetweenness(g, opt)
			fmt.Fprintln(w, "\ntop-10 nodes by betweenness centrality (label: score):")
			for _, u := range analysis.TopK(bc, 10) {
				fmt.Fprintf(w, "  %d: %.2f\n", label(u), bc[u])
			}
		case "closeness":
			cl := centrality.Closeness(g, centrality.Options{Samples: sources, Seed: seed, Workers: workers, Batch: batch, Obs: tsp})
			fmt.Fprintln(w, "\ntop-10 nodes by closeness centrality (label: score):")
			for _, u := range analysis.TopK(cl, 10) {
				fmt.Fprintf(w, "  %d: %.4f\n", label(u), cl[u])
			}
		case "structure":
			fmt.Fprintf(w, "\nstructure: assortativity=%.4f approx diameter=%d degeneracy=%d degree gini=%.4f\n",
				analysis.DegreeAssortativity(g), analysis.ApproxDiameter(g),
				analysis.MaxCore(g), analysis.GiniDegree(g))
		default:
			tsp.End()
			return fmt.Errorf("unknown task %q", task)
		}
		tsp.End()
	}
	return nil
}

func nonZero(xs []float64) int {
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return n
}
