package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"edgeshed/internal/obs"
)

// WriteEdgeList writes g in the SNAP edge-list format with a leading comment
// header. If rm is non-nil, dense ids are translated back to their original
// labels; otherwise dense ids are written directly. Each "u v" line is
// formatted with strconv.AppendInt into one reused buffer, the same bytes
// fmt's %d would give at several times the speed.
func WriteEdgeList(w io.Writer, g *Graph, rm *Remapper) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Undirected graph: |V|=%d |E|=%d\n# u v\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var buf [42]byte // two int64s, a space and a newline
	for _, e := range g.Edges() {
		var u, v int64
		if rm != nil {
			u, v = rm.Label(e.U), rm.Label(e.V)
		} else {
			u, v = int64(e.U), int64(e.V)
		}
		line := strconv.AppendInt(buf[:0], u, 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, v, 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// createFile is the file-creation seam used by writeFileWith; tests swap it
// to inject writers whose Close fails, pinning that close errors propagate.
var createFile = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// writeFileWith creates (or truncates) path and runs write against it,
// reporting the first of the write error and the close error. Every
// file-writing helper in this package funnels through here so a failed
// flush-on-close — the way a full disk usually announces itself — is never
// silently dropped.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadFile reads a graph from path, selecting the format by extension:
// ".esc" is the mmap-able packed-CSR format and anything else the text edge
// list. Packed files store the original labels (or an identity flag).
func LoadFile(path string) (*Graph, *Remapper, error) {
	return LoadFileObs(path, nil)
}

// LoadFileObs is LoadFile with ingest instrumentation: the format-specific
// loader's phase spans and counters are recorded under sp. A ".esc" load
// keeps its file mapping for the process lifetime.
func LoadFileObs(path string, sp *obs.Span) (*Graph, *Remapper, error) {
	if !strings.HasSuffix(path, ".esc") {
		return readEdgeListFileObs(path, sp)
	}
	p, err := openPackedObs(path, sp)
	if err != nil {
		return nil, nil, err
	}
	// The mapping is intentionally never unmapped: callers of LoadFile keep
	// the graph for the process lifetime.
	return p.Graph(), p.Remapper(), nil
}

// SaveFile writes a graph to path, selecting the format by extension as in
// LoadFile, plus ".dot" for Graphviz rendering. The remapper is stored in
// ".esc" output and used to translate text output; it is ignored for DOT
// output, which stores dense ids.
func SaveFile(path string, g *Graph, rm *Remapper) error {
	switch {
	case strings.HasSuffix(path, ".esc"):
		return WritePackedFile(path, g, rm, PackWriteOptions{})
	case strings.HasSuffix(path, ".dot"):
		return writeFileWith(path, func(w io.Writer) error {
			return WriteDOT(w, g, DOTOptions{DropIsolated: true})
		})
	}
	return WriteEdgeListFile(path, g, rm)
}

// WriteEdgeListFile is WriteEdgeList to a file path, creating or truncating
// the file.
func WriteEdgeListFile(path string, g *Graph, rm *Remapper) error {
	return writeFileWith(path, func(w io.Writer) error { return WriteEdgeList(w, g, rm) })
}
