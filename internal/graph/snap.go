package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"

	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// This file is the SNAP edge-list ingestion hot path. The seed-era loader
// ran every line through bufio.Scanner + strings.Fields + strconv.ParseInt
// and a map-backed Builder — several allocations and two hash probes per
// edge. The rewrite splits the work into what parallelizes and what must
// stay ordered:
//
//   - Chunking: the input is cut into ~4 MiB chunks aligned to line
//     boundaries, gathered into groups of one chunk per worker.
//   - Parsing (parallel): workers turn a chunk's bytes into flat (u, v)
//     int64 pairs with a byte-slice field splitter and a manual base-10
//     parser — no line strings, no Fields slices, no per-line allocation.
//   - Collection (ordered): parsed chunks are folded in strictly in input
//     order, so first-seen node remapping — which defines the dense id
//     space — is deterministic and identical to the serial loader's. Edges
//     are packed into canonical uint64 keys as they are remapped.
//   - Indexing: keys are sorted and deduplicated (dropping duplicate edges
//     in either orientation, as SNAP loaders do); the sorted keys are the
//     canonical edge list the Graph constructor takes — no Builder map, no
//     per-node sort.
//
// The result is bit-identical to the seed loader for every input, pinned by
// the oracle test in snap_test.go.

// ingestChunkSize is the target byte size of one parse chunk: big enough
// that per-chunk overhead vanishes, small enough that one group (a chunk
// per worker) stays memory-friendly.
const ingestChunkSize = 4 << 20

// EdgeListOptions tunes ReadEdgeListOpts. The zero value matches
// ReadEdgeList: GOMAXPROCS parse workers and no instrumentation.
type EdgeListOptions struct {
	// Workers is the parse worker count; <= 0 selects GOMAXPROCS. The
	// loaded graph is bit-identical at any worker count.
	Workers int
	// Obs, when non-nil, receives the ingest phase spans ("parse", "index")
	// and the ingest.bytes / ingest.lines / ingest.edges counters.
	Obs *obs.Span
	// TotalBytes, when positive, is the expected input size; it seeds the
	// parse span's progress total so live scrapes can report percentages
	// and ETAs. File loaders pass the stat size; stream callers may not
	// know it.
	TotalBytes int64
}

// ReadEdgeList parses a whitespace-separated edge-list stream in the SNAP
// style: one "u v" pair per line, '#' starting a comment line, blank lines
// ignored. External ids may be arbitrary 64-bit integers; they are remapped
// onto dense ids in first-seen order. Duplicate edges (in either orientation)
// and self-loops are dropped silently, matching how SNAP loaders treat raw
// crawl data.
//
// It returns the graph and the remapper that translates dense ids back to the
// original labels.
func ReadEdgeList(r io.Reader) (*Graph, *Remapper, error) {
	return ReadEdgeListOpts(r, EdgeListOptions{})
}

// ReadEdgeListOpts is ReadEdgeList with explicit worker-count and
// observability options.
func ReadEdgeListOpts(r io.Reader, opt EdgeListOptions) (*Graph, *Remapper, error) {
	return readEdgeList(r, opt, ingestChunkSize)
}

// readEdgeList is ReadEdgeListOpts with parse chunks of about chunkSize
// bytes. The graph, the remapper and any error do not depend on chunkSize;
// tests pass tiny sizes so that small inputs cross chunk boundaries.
func readEdgeList(r io.Reader, opt EdgeListOptions, chunkSize int) (*Graph, *Remapper, error) {
	rm, keys, err := collectEdgeList(r, opt, chunkSize)
	if err != nil {
		return nil, nil, err
	}
	index := opt.Obs.Start("index")
	g, err := graphFromKeys(rm.Len(), keys)
	index.End()
	if err != nil {
		return nil, nil, err
	}
	opt.Obs.Counter("ingest.edges").Add(int64(g.NumEdges()))
	return g, rm, nil
}

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string) (*Graph, *Remapper, error) {
	return readEdgeListFileObs(path, nil)
}

// readEdgeListFileObs opens path and parses it, with the file's size
// seeding the parse span's progress total.
func readEdgeListFileObs(path string, sp *obs.Span) (*Graph, *Remapper, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	opt := EdgeListOptions{Obs: sp}
	if fi, err := f.Stat(); err == nil {
		opt.TotalBytes = fi.Size()
	}
	return ReadEdgeListOpts(f, opt)
}

// packKey packs a canonical edge into one orderable uint64: the smaller
// endpoint in the high 32 bits. Sorting keys therefore sorts edges by
// (U, V), exactly the Graph's canonical edge order.
func packKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// unpackKey inverts packKey.
func unpackKey(k uint64) Edge {
	return Edge{U: NodeID(uint32(k >> 32)), V: NodeID(uint32(k))}
}

// chunkResult is one parsed chunk: flat (u, v) pairs in line order, the
// chunk's total line count, and the first parse error (with its chunk-local
// 1-based line number) if any.
type chunkResult struct {
	pairs   []int64
	lines   int
	err     error
	errLine int
}

// collectEdgeList scans r and gathers every surviving edge key in memory —
// the in-RAM loading path. The external-sort packer uses scanEdgeList
// directly with a spilling emit instead.
func collectEdgeList(r io.Reader, opt EdgeListOptions, chunkSize int) (*Remapper, []uint64, error) {
	var keys []uint64
	rm, err := scanEdgeList(r, opt, chunkSize, func(key uint64) error {
		keys = append(keys, key)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rm, keys, nil
}

// scanEdgeList runs the chunk/parse/collect pipeline over r: it reads one
// line-aligned chunk of about chunkSize bytes per worker, parses the group
// in parallel, then folds the results in input order — so the first-seen
// remap is a pure function of the input bytes, independent of the worker
// count and the chunk size. Each remapped canonical edge key (self-loops
// already dropped, duplicates not) is passed to emit in input order.
func scanEdgeList(r io.Reader, opt EdgeListOptions, chunkSize int, emit func(key uint64) error) (*Remapper, error) {
	parse := opt.Obs.Start("parse")
	defer parse.End()
	if opt.TotalBytes > 0 {
		parse.SetTotal(opt.TotalBytes)
	}
	bytesC := opt.Obs.Counter("ingest.bytes")
	linesC := opt.Obs.Counter("ingest.lines")

	workers := par.Workers(opt.Workers, 1<<30)
	rm := NewRemapper()
	lineBase := 0 // lines consumed before the chunk being collected

	br := bufio.NewReaderSize(r, 256<<10)
	group := make([][]byte, 0, workers)
	results := make([]chunkResult, workers)
	for {
		group = group[:0]
		var readErr error
		for len(group) < workers {
			chunk, err := readChunk(br, chunkSize)
			if len(chunk) > 0 {
				group = append(group, chunk)
			}
			if err != nil {
				readErr = err
				break
			}
		}
		if readErr == io.EOF {
			readErr = nil
		}
		if readErr != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", readErr)
		}
		if len(group) == 0 {
			break
		}
		// One chunk per worker: the group never exceeds the worker count.
		par.Run(len(group), func(w int) { results[w] = parseChunk(group[w]) })
		for i := range group {
			res := &results[i]
			if res.err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", lineBase+res.errLine, res.err)
			}
			for j := 0; j+1 < len(res.pairs); j += 2 {
				u, v := rm.ID(res.pairs[j]), rm.ID(res.pairs[j+1])
				if u == v {
					continue
				}
				if err := emit(packKey(u, v)); err != nil {
					return nil, err
				}
			}
			if rm.Len() > math.MaxInt32 {
				return nil, fmt.Errorf("graph: edge list has more than %d distinct nodes, exceeding the int32 id space", math.MaxInt32)
			}
			lineBase += res.lines
			parse.Done(int64(len(group[i])))
			bytesC.Add(int64(len(group[i])))
			linesC.Add(int64(res.lines))
			res.pairs = nil
		}
	}
	return rm, nil
}

// readChunk reads the next line-aligned chunk: size bytes, extended to the
// end of the line they stop in, so a chunk ends on a newline unless the
// input does. It returns io.EOF (possibly alongside a final chunk) when
// the input is exhausted.
func readChunk(br *bufio.Reader, size int) ([]byte, error) {
	buf := make([]byte, size)
	n, err := io.ReadFull(br, buf)
	buf = buf[:n]
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return buf, io.EOF
	default:
		return buf, err
	}
	if n > 0 && buf[n-1] != '\n' {
		// Extend to the end of the current line so no line straddles two
		// chunks.
		tail, terr := br.ReadBytes('\n')
		buf = append(buf, tail...)
		if terr == io.EOF {
			return buf, io.EOF
		}
		if terr != nil {
			return buf, terr
		}
	}
	return buf, nil
}

// isSpace reports whether c is ASCII whitespace — the separators SNAP edge
// lists use (space, tab, and the CR of CRLF line endings).
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseChunk parses one line-aligned chunk into flat (u, v) pairs. It
// allocates exactly once (the pairs slice); fields are split and integers
// parsed directly on the chunk's bytes.
func parseChunk(buf []byte) chunkResult {
	res := chunkResult{pairs: make([]int64, 0, 2*(len(buf)/8+1))}
	for len(buf) > 0 {
		line := buf
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line = buf[:i]
			buf = buf[i+1:]
		} else {
			buf = nil
		}
		res.lines++
		// Skip leading whitespace; ignore blank and comment lines.
		j := 0
		for j < len(line) && isSpace(line[j]) {
			j++
		}
		if j == len(line) || line[j] == '#' {
			continue
		}
		u, v, err := parsePair(line[j:])
		if err != nil {
			res.err = err
			res.errLine = res.lines
			return res
		}
		res.pairs = append(res.pairs, u, v)
	}
	return res
}

// parsePair parses the first two whitespace-separated int64 fields of a
// line (leading whitespace already skipped, never empty). Extra fields are
// ignored, matching the seed loader. Error messages mirror the seed
// loader's exactly, including strconv's phrasing for malformed ids.
func parsePair(line []byte) (u, v int64, err error) {
	tok1, rest := nextField(line)
	tok2, _ := nextField(rest)
	if len(tok2) == 0 {
		return 0, 0, fmt.Errorf("expected two fields, got %q", trimTrailingSpace(line))
	}
	u, ok := parseInt64(tok1)
	if !ok {
		_, serr := strconv.ParseInt(string(tok1), 10, 64)
		return 0, 0, fmt.Errorf("bad node id %q: %v", tok1, serr)
	}
	v, ok = parseInt64(tok2)
	if !ok {
		_, serr := strconv.ParseInt(string(tok2), 10, 64)
		return 0, 0, fmt.Errorf("bad node id %q: %v", tok2, serr)
	}
	return u, v, nil
}

// nextField returns the first whitespace-delimited token of b and the
// remainder after it.
func nextField(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	start := i
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return b[start:i], b[i:]
}

// trimTrailingSpace drops trailing ASCII whitespace, matching what
// strings.TrimSpace produced in the seed loader's error messages.
func trimTrailingSpace(b []byte) []byte {
	end := len(b)
	for end > 0 && isSpace(b[end-1]) {
		end--
	}
	return b[:end]
}

// parseInt64 parses a base-10 signed integer with overflow checking — the
// allocation-free fast path for the two fields of every edge line. It
// accepts exactly what strconv.ParseInt(s, 10, 64) accepts in base 10.
func parseInt64(tok []byte) (int64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	switch tok[0] {
	case '-':
		neg = true
		i++
	case '+':
		i++
	}
	if i == len(tok) {
		return 0, false
	}
	const cutoff = uint64(1) << 63
	var n uint64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n >= cutoff/10+1 { // next multiply-add must overflow
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n > cutoff {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true
	}
	if n == cutoff {
		return 0, false
	}
	return int64(n), true
}

// graphFromKeys builds a Graph over n nodes from packed canonical edge
// keys, sorting and deduplicating in place. Sorted keys are the canonical
// edge list in order, so the constructor needs no edge re-sort and no
// per-node sort.
func graphFromKeys(n int, keys []uint64) (*Graph, error) {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	if err := csrBounds(n, len(keys)); err != nil {
		return nil, err
	}
	edges := make([]Edge, len(keys))
	for i, k := range keys {
		edges[i] = unpackKey(k)
	}
	return newGraph(n, edges), nil
}
