// Command gengraph emits synthetic graphs as SNAP-style edge lists: either a
// catalog stand-in for one of the paper's datasets, or a raw random model.
//
// Usage:
//
//	gengraph -dataset ca-GrQc -scale 8 > grqc.txt
//	gengraph -model ba -n 10000 -m 3 > ba.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
)

func main() {
	var (
		ds    = flag.String("dataset", "", "catalog dataset: "+fmt.Sprint(dataset.Names()))
		scale = flag.Int("scale", 16, "dataset scale divisor (1 = paper size)")
		model = flag.String("model", "", "raw model: ba, hk, er, ws, sbm, powerlaw, rmat")
		n     = flag.Int("n", 1000, "node count (raw models)")
		m     = flag.Int("m", 3, "edges per node (ba/hk), total edges (er), ring degree (ws)")
		prob  = flag.Float64("prob", 0.3, "model probability (hk triad closure, ws rewire, sbm p_in)")
		k     = flag.Int("k", 4, "communities (sbm)")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", "", "output file; extension picks the format (.esc packed, else edge list; default: stdout text)")
	)
	cli := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	sess, err := cli.Start("gengraph")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	runErr := obs.Run(sess, func() error { return run(*ds, *scale, *model, *n, *m, *prob, *k, *seed, *out, sess) })
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", runErr)
		os.Exit(1)
	}
}

func run(ds string, scale int, model string, n, m int, prob float64, k int, seed int64, out string, sess *obs.Session) error {
	gensp := sess.Root().Start("generate")
	g, err := generate(ds, scale, model, n, m, prob, k, seed)
	gensp.End()
	if err != nil {
		return err
	}
	sess.SetGraph(g.NumNodes(), g.NumEdges())
	sess.SetSeed(seed)
	sess.Logf("generated |V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	write := sess.Root().Start("write")
	defer write.End()
	if out != "" {
		// SaveFile dispatches on the extension, so -out graph.esc packs
		// directly to the mmap-able CSR format.
		return graph.SaveFile(out, g, nil)
	}
	return graph.WriteEdgeList(os.Stdout, g, nil)
}

// generate builds the requested graph from the catalog or a raw model.
func generate(ds string, scale int, model string, n, m int, prob float64, k int, seed int64) (*graph.Graph, error) {
	switch {
	case ds != "":
		spec, err := dataset.ByName(ds)
		if err != nil {
			return nil, err
		}
		return spec.Build(scale, seed)
	case model != "":
		switch model {
		case "ba":
			return gen.BarabasiAlbert(n, m, seed), nil
		case "hk":
			return gen.HolmeKim(n, m, prob, seed), nil
		case "er":
			return gen.ErdosRenyi(n, m, seed), nil
		case "ws":
			return gen.WattsStrogatz(n, m, prob, seed), nil
		case "sbm":
			return gen.PlantedPartition(k, n/k, prob, prob/20, seed), nil
		case "powerlaw":
			return gen.ConfigurationModel(gen.PowerLawDegrees(n, 2.1, 1, n/20, seed), seed+1), nil
		case "rmat":
			// n is rounded up to the next power of two; m edges per node.
			scale := 1
			for 1<<scale < n {
				scale++
			}
			return gen.RMAT(scale, n*m, 0.57, 0.19, 0.19, seed), nil
		default:
			return nil, fmt.Errorf("unknown model %q", model)
		}
	default:
		return nil, fmt.Errorf("one of -dataset or -model is required")
	}
}
