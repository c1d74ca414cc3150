package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"sync"
	"unsafe"

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
//     boundaries, gathered into groups of one chunk per worker, in
//     buffers reused from group to group.
//   - Parsing (parallel, one group ahead): workers turn a chunk's bytes
//     into flat (u, v) int64 pairs with a byte-slice field splitter and a
//     manual base-10 parser — no line strings, no Fields slices, no
//     per-line allocation — while the previous group is being collected.
//   - Collection (ordered): parsed chunks are folded in strictly in input
//     order, so first-seen node remapping (the Remapper's label table) —
//     which defines the dense id space — is deterministic and identical to
//     the serial loader's. Edges are packed into canonical uint64 keys as
//     they are remapped.
//   - Indexing: keys are radix-sorted and deduplicated (dropping duplicate
//     edges in either orientation, as SNAP loaders do); the sorted keys are
//     the canonical edge list the Graph constructor takes — no Builder
//     map, no per-node sort.
//
// The result is bit-identical to the seed loader — graph, labels and
// error text — for every input whose field separators are ASCII and whose
// lines are under the seed scanner's 16 MiB limit, pinned by the oracle
// tests in snap_test.go and FuzzReadEdgeList. Outside that the two differ:
// the loader splits fields on ASCII whitespace only, where the seed's
// strings.Fields also split on Unicode spaces (U+00A0, U+2003, U+0085, ...),
// and it reads lines of any length, where the seed failed with "token too
// long".

// ingestChunkSize is the target byte size of one parse chunk: big enough
// that per-chunk overhead vanishes, small enough that one group (a chunk
// per worker) stays memory-friendly.
const ingestChunkSize = 4 << 20

// EdgeListOptions tunes ReadEdgeListOpts. The zero value matches
// ReadEdgeList: GOMAXPROCS parse workers and no instrumentation.
type EdgeListOptions struct {
	// Workers bounds the goroutines that parse, sort the edge keys and
	// fill the CSR arrays; <= 0 selects GOMAXPROCS. The loaded graph is
	// bit-identical at any worker count.
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
	g, err := graphFromKeys(rm.Len(), keys, opt.Workers)
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
//
// Reading and parsing run one group ahead: while this goroutine folds
// group k, another reads group k+1 and the workers parse it, into the
// buffers group k−1 used. Every return waits for the group in flight
// first, so no goroutine outlives the call and r is not read after it.
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
	lineBase := 0 // lines consumed before the chunk being folded
	fold := func(g *parseGroup) error {
		for i := range g.n {
			res := &g.results[i]
			if res.err != nil {
				return fmt.Errorf("graph: line %d: %w", lineBase+res.errLine, res.err)
			}
			for j := 0; j+1 < len(res.pairs); j += 2 {
				u, v := rm.ID(res.pairs[j]), rm.ID(res.pairs[j+1])
				if u == v {
					continue
				}
				if err := emit(packKey(u, v)); err != nil {
					return err
				}
			}
			if rm.Len() > math.MaxInt32 {
				return fmt.Errorf("graph: edge list has more than %d distinct nodes, exceeding the int32 id space", math.MaxInt32)
			}
			lineBase += res.lines
			parse.Done(int64(len(g.bufs[i])))
			bytesC.Add(int64(len(g.bufs[i])))
			linesC.Add(int64(res.lines))
		}
		return nil
	}

	br := bufio.NewReaderSize(r, 256<<10)
	cur, next := newParseGroup(workers), newParseGroup(workers)
	cur.fill(br, chunkSize)
	for cur.n > 0 || cur.err != nil {
		if cur.err != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", cur.err)
		}
		var ahead sync.WaitGroup
		if !cur.eof {
			ahead.Add(1)
			go func(g *parseGroup) {
				defer ahead.Done()
				g.fill(br, chunkSize)
			}(next)
		}
		err := fold(cur)
		ahead.Wait()
		if err != nil {
			return nil, err
		}
		if cur.eof {
			break
		}
		cur, next = next, cur
	}
	return rm, nil
}

// parseGroup is one group of up to one chunk per worker: the chunks'
// bytes and their parse results, in buffers that every other group
// reuses.
type parseGroup struct {
	bufs    [][]byte // bufs[:n] are this group's chunks
	results []chunkResult
	n       int
	eof     bool  // the input ended in this group
	err     error // a read error other than EOF
}

// newParseGroup returns an empty group of up to workers chunks.
func newParseGroup(workers int) *parseGroup {
	return &parseGroup{bufs: make([][]byte, workers), results: make([]chunkResult, workers)}
}

// fill reads the next group of chunks from br, then parses them in
// parallel, one worker per chunk. After a read error it parses nothing.
func (g *parseGroup) fill(br *bufio.Reader, chunkSize int) {
	g.n, g.eof, g.err = 0, false, nil
	for g.n < len(g.bufs) {
		chunk, err := readChunk(br, g.bufs[g.n], chunkSize)
		g.bufs[g.n] = chunk
		if len(chunk) > 0 {
			g.n++
		}
		if err == io.EOF {
			g.eof = true
			break
		}
		if err != nil {
			g.err = err
			return
		}
	}
	par.Run(g.n, func(w int) { parseChunk(g.bufs[w], &g.results[w]) })
}

// readChunk reads the next line-aligned chunk into buf's storage: size
// bytes, extended to the end of the line they stop in, so a chunk ends on
// a newline unless the input does. It returns io.EOF (possibly alongside
// a final chunk) when the input is exhausted.
func readChunk(br *bufio.Reader, buf []byte, size int) ([]byte, error) {
	buf = slices.Grow(buf[:0], size)[:size]
	n, err := io.ReadFull(br, buf)
	buf = buf[:n]
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return buf, io.EOF
	default:
		return buf, err
	}
	// Extend to the end of the current line so no line straddles two
	// chunks.
	for n > 0 && buf[len(buf)-1] != '\n' {
		tail, terr := br.ReadSlice('\n')
		buf = append(buf, tail...)
		switch terr {
		case nil, bufio.ErrBufferFull:
		case io.EOF:
			return buf, io.EOF
		default:
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

// parseChunk parses one line-aligned chunk into res: flat (u, v) pairs,
// in the storage of res's previous pairs, grown when short. Fields are
// split and integers parsed directly on the chunk's bytes.
func parseChunk(buf []byte, res *chunkResult) {
	*res = chunkResult{pairs: slices.Grow(res.pairs[:0], 2*(len(buf)/8+1))}
	for len(buf) > 0 {
		if u, v, n := plainPair(buf); n > 0 {
			res.lines++
			res.pairs = append(res.pairs, u, v)
			buf = buf[n:]
			continue
		}
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
			return
		}
		res.pairs = append(res.pairs, u, v)
	}
}

// plainPair parses the line at the head of buf in one pass when it has the
// shape nearly every line of a SNAP edge list has: two unsigned base-10
// ids of at most 18 digits (so no overflow check is needed), separated by
// spaces or tabs, ending in a newline or at the end of buf. It returns the
// ids and the line's length with its newline, or n = 0 for any other
// line, which then takes the general path — so the result is the one the
// general path would give.
func plainPair(buf []byte) (u, v int64, n int) {
	i := 0
	for i < len(buf) && i < 18 && buf[i]-'0' < 10 {
		u = u*10 + int64(buf[i]-'0')
		i++
	}
	if i == 0 || i == len(buf) || (buf[i] != ' ' && buf[i] != '\t') {
		return 0, 0, 0
	}
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\t') {
		i++
	}
	j := i
	for i < len(buf) && i-j < 18 && buf[i]-'0' < 10 {
		v = v*10 + int64(buf[i]-'0')
		i++
	}
	switch {
	case i == j:
		return 0, 0, 0
	case i == len(buf):
		return u, v, i
	case buf[i] == '\n':
		return u, v, i + 1
	}
	return 0, 0, 0
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
// keys, sorting them (radixSort) and deduplicating. Sorted keys are the
// canonical edge list in order, so the constructor needs no edge re-sort
// and no per-node sort. The sort's scratch is the edge list's own
// allocation, so the call holds the keys and one more array of the same
// size, as an in-place sort would; keys is overwritten.
func graphFromKeys(n int, keys []uint64, workers int) (*Graph, error) {
	buf := make([]uint64, len(keys))
	sorted := radixSort(keys, buf, workers)
	// The edge list aliases buf. sorted may too; edge j <= i is written
	// only after key i has been read, so unpacking in place is safe.
	edges := unsafe.Slice((*Edge)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf))
	m, prev := 0, uint64(0)
	for i, k := range sorted {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		edges[m] = unpackKey(k)
		m++
	}
	if err := csrBounds(n, m); err != nil {
		return nil, err
	}
	return newGraph(n, edges[:m:m], workers), nil
}

// radixDigitBits is the widest digit radixSort uses: 2^11 counters per
// worker stay in L1 while a pass scatters.
const radixDigitBits = 11

// radixSort sorts packed edge keys ascending with an LSD radix sort over
// the bits that node ids occupy: with every id below 2^b, a key has 2b
// significant bits (b of V, then b of U from bit 32), sorted in
// ceil(2b/11) stable counting passes of equal width — four passes up to
// 2^22 nodes. Each pass counts every worker's block of keys, then scatters
// the blocks in parallel into the other buffer. scratch must be at least
// as long as keys; the sorted keys end in whichever of the two the last
// pass wrote, and that one is returned. Sorting costs no allocation past
// the per-worker counters, so the caller decides what memory the scratch
// is charged to.
func radixSort(keys, scratch []uint64, workers int) []uint64 {
	m := len(keys)
	var or uint64
	for _, k := range keys {
		or |= k
	}
	b := max(bits.Len32(uint32(or>>32)), bits.Len32(uint32(or)))
	if m < 2 || b == 0 {
		return keys
	}
	passes := (2*b + radixDigitBits - 1) / radixDigitBits
	width := uint((2*b + passes - 1) / passes)
	mask := uint64(1)<<width - 1
	low := uint64(1)<<b - 1
	workers = workersFor(workers, m)
	buckets := 1 << width
	counts := make([]int, workers*buckets)
	src, dst := keys, scratch[:m]
	for p := 0; p < passes; p++ {
		shift := uint(p) * width
		par.Blocks(m, workers, func(w, lo, hi int) {
			c := counts[w*buckets : (w+1)*buckets]
			clear(c)
			for _, k := range src[lo:hi] {
				c[((k>>32)<<b|k&low)>>shift&mask]++
			}
		})
		// Exclusive prefix in (digit, worker) order: each worker's keys of
		// one digit follow the earlier workers', so every pass is stable.
		sum, trivial := 0, false
		for d := 0; d < buckets; d++ {
			start := sum
			for w := 0; w < workers; w++ {
				c := &counts[w*buckets+d]
				*c, sum = sum, sum+*c
			}
			trivial = trivial || sum-start == m
		}
		if trivial {
			continue // one digit value throughout: the pass would copy
		}
		par.Blocks(m, workers, func(w, lo, hi int) {
			c := counts[w*buckets : (w+1)*buckets]
			for _, k := range src[lo:hi] {
				d := ((k>>32)<<b | k&low) >> shift & mask
				dst[c[d]] = k
				c[d]++
			}
		})
		src, dst = dst, src
	}
	return src
}
