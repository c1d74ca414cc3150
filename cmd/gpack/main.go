// Command gpack converts text edge lists into the mmap-able ESC1 packed-CSR
// format (or repacks .esc files), so SNAP-scale edge lists parse once and
// load in milliseconds ever after.
//
// Usage:
//
//	gpack -in com-lj.txt -out com-lj.esc
//	gpack -in com-lj.txt -out com-lj.esc -mem 256MiB   # out-of-core
//	gpack -in com-lj.esc -out com-lj-deg.esc -order degree
//
// Without -mem the input graph is loaded in RAM and packed with
// graph.WritePackedFile. With -mem the edge list is streamed through the
// bounded-memory external-sort packer (graph.PackEdgeListFile): edge keys
// spill to sorted temp runs and the CSR arrays are filled through a
// read-write mapping of the output, so graphs larger than RAM can be
// packed. Either way -workers bounds the goroutines that parse the text,
// radix-sort the edge keys and fill the CSR arrays; the output file is
// byte-identical at any count. The shared observability flags apply
// (-metrics, -profile, -debug-addr serves live packing progress); see
// internal/obs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

func main() {
	var (
		in      = flag.String("in", "", "input graph: edge list, or .esc packed (required)")
		out     = flag.String("out", "", "output .esc file (required)")
		order   = flag.String("order", "keep", "dense-id order: keep (ids bit-identical to the text loader's) or degree (degree-descending relabel for locality)")
		mem     = flag.String("mem", "", "external-sort memory budget, e.g. 256MiB (suffixes K/M/G, binary); empty packs in RAM. Out-of-core packing reads text edge lists and implies -order keep")
		tmp     = flag.String("tmp", "", "spill directory for -mem runs (default: the system temp dir)")
		workers = flag.Int("workers", 0, "goroutines that parse, sort and fill the CSR arrays (0 = GOMAXPROCS); output is identical at any count")
		verify  = flag.Bool("verify", false, "re-open and fully validate the output after packing")
	)
	cli := obs.BindFlags(flag.CommandLine)
	flag.Parse()
	sess, err := cli.Start("gpack")
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpack:", err)
		os.Exit(1)
	}
	runErr := obs.Run(sess, func() error { return run(*in, *out, *order, *mem, *tmp, *workers, *verify, sess) })
	if cerr := sess.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "gpack:", runErr)
		os.Exit(1)
	}
}

func run(in, out, order, mem, tmp string, workers int, verify bool, sess *obs.Session) error {
	if in == "" || out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if !strings.HasSuffix(out, ".esc") {
		return fmt.Errorf("-out must end in .esc (got %q)", out)
	}
	var ord graph.Order
	switch order {
	case "keep":
		ord = graph.OrderKeep
	case "degree":
		ord = graph.OrderDegree
	default:
		return fmt.Errorf("unknown -order %q (want keep or degree)", order)
	}
	budget, err := parseBytes(mem)
	if err != nil {
		return fmt.Errorf("bad -mem: %w", err)
	}

	if budget > 0 {
		if ord != graph.OrderKeep {
			return fmt.Errorf("-mem (out-of-core) supports -order keep only: degree relabeling needs the whole graph in RAM")
		}
		if strings.HasSuffix(in, ".esc") {
			return fmt.Errorf("-mem (out-of-core) reads text edge lists; %q is already a parsed format", in)
		}
		stats, err := graph.PackEdgeListFile(in, out, graph.PackOptions{
			MemBudget: budget,
			TmpDir:    tmp,
			Workers:   workers,
			Obs:       sess.Root(),
		})
		if err != nil {
			return err
		}
		sess.SetGraph(stats.Nodes, stats.Edges)
		sess.Logf("packed %s → %s: |V|=%d |E|=%d, %d spill runs (%d keys), %d bytes out",
			in, out, stats.Nodes, stats.Edges, stats.SpillChunks, stats.SpilledKeys, stats.BytesOut)
	} else {
		load := sess.Root().Start("load")
		g, rm, err := loadInput(in, workers, load)
		load.End()
		if err != nil {
			return err
		}
		sess.SetGraph(g.NumNodes(), g.NumEdges())
		pack := sess.Root().Start("pack")
		err = graph.WritePackedFile(out, g, rm, graph.PackWriteOptions{Order: ord})
		pack.End()
		if err != nil {
			return err
		}
		sess.Logf("packed %s → %s: |V|=%d |E|=%d, order=%s", in, out, g.NumNodes(), g.NumEdges(), order)
	}

	if verify {
		p, err := graph.OpenPacked(out)
		if err != nil {
			return fmt.Errorf("verifying %s: %w", out, err)
		}
		if err := p.Verify(); err != nil {
			p.Close()
			return fmt.Errorf("verifying %s: %w", out, err)
		}
		g := p.Graph()
		sess.Logf("verified %s: |V|=%d |E|=%d", out, g.NumNodes(), g.NumEdges())
		if err := p.Close(); err != nil {
			return err
		}
	}
	return nil
}

// loadInput loads the in-RAM packer's input: a .esc file is mapped, and a
// text edge list is parsed, sorted and filled on up to workers workers.
func loadInput(in string, workers int, sp *obs.Span) (*graph.Graph, *graph.Remapper, error) {
	if strings.HasSuffix(in, ".esc") {
		return graph.LoadFileObs(in, sp)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	opt := graph.EdgeListOptions{Workers: workers, Obs: sp}
	if fi, err := f.Stat(); err == nil {
		opt.TotalBytes = fi.Size()
	}
	return graph.ReadEdgeListOpts(f, opt)
}

// parseBytes parses a human byte size: a plain integer is bytes, and the
// binary suffixes K/KB/KiB, M/MB/MiB, G/GB/GiB scale by 2^10, 2^20, 2^30.
// Empty means 0 (no budget).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	upper := strings.ToUpper(s)
	mult := int64(1)
	for _, suf := range []struct {
		text  string
		scale int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.text) {
			mult = suf.scale
			upper = strings.TrimSuffix(upper, suf.text)
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a byte size", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("byte size %q is negative", s)
	}
	return v * mult, nil
}
