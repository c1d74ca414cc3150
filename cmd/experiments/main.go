// Command experiments reproduces the paper's tables and figures on the
// synthetic SNAP stand-ins.
//
// Usage:
//
//	experiments -list
//	experiments -run t3 -scale 16
//	experiments -run all -scale 32 -out results.txt
//
// Long sweeps report per-cell progress lines under -v, and -run all
// carries span-level done/total counts, so a run with -debug-addr set can
// be watched live over HTTP (/progress, /metrics); see internal/obs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"edgeshed/internal/experiments"
	"edgeshed/internal/obs"
)

func main() {
	var (
		runID   = flag.String("run", "", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		scale   = flag.Int("scale", 16, "dataset scale divisor (1 = paper sizes; larger = smaller graphs)")
		seed    = flag.Int64("seed", 0, "seed offset for replication")
		psFlag  = flag.String("ps", "", "comma-separated preservation ratios (default 0.9..0.1)")
		out     = flag.String("out", "", "output file (default: stdout)")
		skipUDS = flag.Bool("skip-uds", false, "skip the UDS comparator (it dominates runtime)")
		md      = flag.Bool("md", false, "render tables as GitHub-flavored Markdown")
		workers = flag.Int("workers", 0, "worker goroutines for parallel kernels (0 = GOMAXPROCS); measured values are identical at any count")
		batch   = flag.Int("batch", 0, "MS-BFS sources per centrality batch, 1..64 (0 or out of range = the full 64-wide word); measured values are identical at any width")
	)
	cli := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	sess, err := cli.Start("experiments")
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	runErr := obs.Run(sess, func() error {
		return run(*runID, *list, *scale, *seed, *psFlag, *out, *skipUDS, *md, *workers, *batch, sess)
	})
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "experiments:", runErr)
		os.Exit(1)
	}
}

func run(runID string, list bool, scale int, seed int64, psFlag, out string, skipUDS, md bool, workers, batch int, sess *obs.Session) error {
	if list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if runID == "" {
		return fmt.Errorf("-run or -list is required")
	}
	var ps []float64
	if psFlag != "" {
		for _, s := range strings.Split(psFlag, ",") {
			p, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("bad -ps entry %q: %v", s, err)
			}
			ps = append(ps, p)
		}
	}
	// Resolve the id before -out is created, so a bad id leaves an
	// existing output file as it was.
	var one experiments.Experiment
	if runID != "all" {
		e, err := experiments.ByID(runID)
		if err != nil {
			return err
		}
		one = e
	}
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	cfg := experiments.Config{Out: w, Scale: scale, Seed: seed, Ps: ps, SkipUDS: skipUDS, Markdown: md, Workers: workers, Batch: batch,
		// Long sweeps print nothing until a table completes; under -v each
		// finished (dataset, p, method) cell logs a line instead.
		Progress: sess.Verbosef}
	fmt.Fprintf(w, "# edgeshed experiments: run=%s scale=%d seed=%d ps=%v skip-uds=%v (%s)\n\n",
		runID, scale, seed, cfg.PsOrDefault(), skipUDS, runtime.Version())

	sess.SetSeed(seed)
	sess.SetWorkers(workers)
	root := sess.Root()
	runOne := func(e experiments.Experiment) error {
		sess.Logf("== running %s: %s", e.ID, e.Title)
		var esp *obs.Span
		if root.Enabled() {
			esp = root.Start("exp:" + e.ID)
		}
		err := e.Run(cfg)
		esp.End()
		return err
	}
	if runID == "all" {
		all := experiments.All()
		root.SetTotal(int64(len(all)))
		for _, e := range all {
			if err := runOne(e); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			root.Done(1)
		}
		return nil
	}
	return runOne(one)
}
