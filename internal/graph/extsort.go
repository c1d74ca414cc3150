package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// External-sort packing: edge-list → ESC1 without ever holding the graph in
// memory. The canonical uint64 edge keys stream out of the parallel parser
// into a buffer that grows toward the memory budget; each time it is full
// it is radix-sorted, deduplicated and spilled to a temp file. Pass 1
// merges the spill runs and the in-memory tail run to count the distinct
// edges, which sizes the output file; pass 2 merges them again into the
// Edges section of a read-write mapping of that file, and fillCSR builds
// Offsets, Targets, EdgeID and Mate from that section in place. When
// nothing spilled, the tail run is the edge list: pass 1 is its length and
// pass 2 a copy. Peak memory is the key buffer and its sort scratch (both
// within MemBudget) plus fillCSR's O(workers·|V|) counters, never the
// O(|E|) edge set.
//
// fillCSR is the fill step that builds every in-RAM Graph, so the packed
// file is byte-identical to WritePackedFile of the in-RAM graph — pinned by
// test. The remapper is the one in-memory structure proportional to |V|
// that cannot be avoided: first-seen dense-id assignment needs the label
// table.

// defaultMemBudget is the key memory when PackOptions.MemBudget is unset:
// 256 MiB, 16 Mi keys per spill run with their sort scratch.
const defaultMemBudget = 256 << 20

// PackOptions tunes PackEdgeListFile.
type PackOptions struct {
	// MemBudget bounds the edge keys held in memory, with the scratch that
	// sorting them needs, in bytes; <= 0 selects defaultMemBudget. The
	// buffer grows toward it as keys arrive, so small inputs take little.
	// O(|V|) structures (remapper, fill counters) are not charged against
	// it, nor are the parse buffers.
	MemBudget int64
	// TmpDir is where spill chunks go; empty means the system temp dir.
	TmpDir string
	// Workers bounds the goroutines that parse, sort the key runs and fill
	// the CSR arrays; <= 0 selects GOMAXPROCS. The file is byte-identical
	// at any worker count.
	Workers int
	// Obs, when non-nil, receives the phase spans ("parse", "sort",
	// "merge.count", "merge.fill") and pack.* counters.
	Obs *obs.Span
}

// PackStats summarizes one external-sort packing run.
type PackStats struct {
	// Nodes and Edges are the packed graph's |V| and |E|.
	Nodes, Edges int
	// SpillChunks is the number of sorted runs written to temp files; 0
	// means the whole key set fit in MemBudget.
	SpillChunks int
	// SpilledKeys counts keys written to spill files (pre-merge, so
	// duplicates across chunks are counted once per chunk).
	SpilledKeys int64
	// BytesOut is the packed file's size.
	BytesOut int64
}

// PackEdgeListFile streams the SNAP edge list at inPath into an ESC1
// packed-CSR file at outPath under a bounded memory budget, so graphs
// larger than RAM can be packed. The output is byte-identical to loading
// the list in RAM and calling WritePackedFile with OrderKeep; degree
// relabeling needs the whole graph, so only that in-RAM path offers it.
func PackEdgeListFile(inPath, outPath string, opt PackOptions) (*PackStats, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("graph: external-sort packing writes through a little-endian mapping and is unsupported on big-endian hosts; use the in-RAM packer")
	}
	budget := opt.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}

	tmpDir, err := os.MkdirTemp(opt.TmpDir, "escpack-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)

	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	elOpt := EdgeListOptions{Workers: opt.Workers, Obs: opt.Obs}
	if fi, err := in.Stat(); err == nil {
		elOpt.TotalBytes = fi.Size()
	}

	// Spill phase: buffer keys, and each time the buffer is full, sort +
	// dedup + write one run. The residual buffer stays in memory as the
	// final (sorted) run.
	stats := &PackStats{}
	var runPaths []string
	keys := newKeyBuffer(budget)
	rm, err := scanEdgeList(in, elOpt, ingestChunkSize, func(key uint64) error {
		if !keys.add(key) {
			return nil
		}
		run := keys.sorted(opt.Workers)
		path := filepath.Join(tmpDir, fmt.Sprintf("run-%06d", len(runPaths)))
		if err := writeKeyFile(path, run); err != nil {
			return err
		}
		runPaths = append(runPaths, path)
		stats.SpilledKeys += int64(len(run))
		opt.Obs.Counter("pack.spill.chunks").Add(1)
		opt.Obs.Counter("pack.spill.keys").Add(int64(len(run)))
		keys.reset()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortSpan := opt.Obs.Start("sort")
	tail := keys.sorted(opt.Workers)
	sortSpan.End()
	n := rm.Len()
	stats.Nodes = n
	stats.SpillChunks = len(runPaths)

	// Pass 1: the distinct edge total.
	m := len(tail)
	if len(runPaths) > 0 {
		count := opt.Obs.Start("merge.count")
		m, err = mergeRuns(runPaths, tail, func(int, uint64) error {
			return nil
		})
		count.End()
		if err != nil {
			return nil, err
		}
	}
	if err := csrBounds(n, m); err != nil {
		return nil, err
	}
	stats.Edges = m

	// Lay out and create the output file, then fill it through a shared
	// read-write mapping: pass 2's stores land directly in the page cache
	// and the kernel writes them back.
	identity := identityLabels(rm, n)
	l := newPackLayout(n, m, identity)
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if err := out.Truncate(l.total); err != nil {
		return nil, err
	}
	data, release, err := mapFile(out, l.total, true)
	if err != nil {
		return nil, err
	}
	released := false
	unmap := func() error {
		if released {
			return nil
		}
		released = true
		return release()
	}
	defer unmap()
	if uintptr(dataPtr(data))%8 != 0 {
		return nil, fmt.Errorf("graph: output mapping is not 8-byte aligned; cannot alias CSR arrays")
	}

	var flags uint64
	if identity {
		flags |= packFlagIdentityLabels
	} else {
		copy(viewInt64s(data, l.labelsOff, n), labelSlice(rm, n))
	}
	c := CSR{
		Offsets: viewInt32s(data, l.offsetsOff, n+1),
		Targets: viewInt32s(data, l.targetsOff, 2*m),
		EdgeID:  viewInt32s(data, l.edgeIDOff, 2*m),
		Mate:    viewInt32s(data, l.mateOff, 2*m),
	}
	edges := viewEdges(data, l.edgesOff, m)

	// Pass 2: the sorted edge list into the Edges section, then the CSR
	// arrays from it with the in-RAM graphs' fill step, so the file is
	// byte-identical to the in-RAM pack.
	fill := opt.Obs.Start("merge.fill")
	if len(runPaths) == 0 {
		par.Blocks(m, workersFor(opt.Workers, m), func(_, lo, hi int) {
			for i, k := range tail[lo:hi] {
				edges[lo+i] = unpackKey(k)
			}
		})
	} else {
		filled, err := mergeRuns(runPaths, tail, func(i int, k uint64) error {
			if i >= m {
				return fmt.Errorf("graph: merge passes disagree: counted %d edges, found more", m)
			}
			edges[i] = unpackKey(k)
			return nil
		})
		if err == nil && filled != m {
			err = fmt.Errorf("graph: merge passes disagree: counted %d edges, filled %d", m, filled)
		}
		if err != nil {
			fill.End()
			return nil, err
		}
	}
	fillCSR(&c, edges, opt.Workers)
	fill.End()

	// Header last: the checksum covers the now-complete payload.
	putPackHeader(data, flags, n, m, crc32.Checksum(data[packHeaderSize:], castagnoli))
	if err := flushMap(out, data); err != nil {
		return nil, err
	}
	if err := unmap(); err != nil {
		return nil, err
	}
	if err := out.Sync(); err != nil {
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	stats.BytesOut = l.total
	opt.Obs.Counter("pack.bytes.out").Add(l.total)
	opt.Obs.Counter("ingest.edges").Add(int64(m))
	return stats, nil
}

// minKeyBuffer is the key count a keyBuffer starts at, and the floor of
// its capacity however small the budget.
const minKeyBuffer = 16

// keyBuffer holds the packer's edge keys between spills, with the scratch
// that sorting them needs. It starts small and doubles as keys arrive, up
// to half the budget's worth of keys (never below minKeyBuffer keys), so a
// small input never pays for the whole budget. The scratch is allocated
// at the first sort, which comes only once the buffer is full or the
// input is done, so keys and scratch together stay within the budget.
type keyBuffer struct {
	keys, scratch []uint64
	capKeys       int // the most keys held at once
}

// newKeyBuffer returns an empty buffer for a budget of budget bytes.
func newKeyBuffer(budget int64) *keyBuffer {
	return &keyBuffer{capKeys: int(max(budget/16, minKeyBuffer))}
}

// add appends key and reports whether the buffer is now full, in which
// case the caller spills it (sorted, then reset) before the next add.
func (b *keyBuffer) add(key uint64) bool {
	if len(b.keys) == cap(b.keys) {
		grown := make([]uint64, len(b.keys), min(max(2*cap(b.keys), minKeyBuffer), b.capKeys))
		copy(grown, b.keys)
		b.keys = grown
	}
	b.keys = append(b.keys, key)
	return len(b.keys) == b.capKeys
}

// sorted radix-sorts and deduplicates the buffered keys and returns them.
// The result aliases the buffer, valid until the next add or reset.
func (b *keyBuffer) sorted(workers int) []uint64 {
	if cap(b.scratch) < len(b.keys) {
		b.scratch = make([]uint64, len(b.keys))
	}
	return slices.Compact(radixSort(b.keys, b.scratch, workers))
}

// reset empties the buffer, keeping its storage for the next run.
func (b *keyBuffer) reset() { b.keys = b.keys[:0] }

// mergeRuns merges the spill runs at paths and the in-memory tail run into
// one ascending deduplicated stream, calls visit with each key and its
// position, and returns the number of keys.
func mergeRuns(paths []string, tail []uint64, visit func(i int, k uint64) error) (int, error) {
	srcs := make([]keySource, 0, len(paths)+1)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			closeSources(srcs)
			return 0, err
		}
		srcs = append(srcs, &fileKeys{f: f, br: bufio.NewReaderSize(f, 256<<10)})
	}
	if len(tail) > 0 {
		srcs = append(srcs, &memKeys{keys: tail})
	}
	mg := newKeyMerger(srcs)
	i := 0
	for {
		k, ok, err := mg.next()
		if err == nil && ok {
			err = visit(i, k)
		}
		if err != nil {
			closeSources(srcs)
			return 0, err
		}
		if !ok {
			break
		}
		i++
	}
	return i, closeSources(srcs)
}

// writeKeyFile writes one sorted run as raw little-endian uint64s.
func writeKeyFile(path string, keys []uint64) error {
	return writeFileWith(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 256<<10)
		var rec [8]byte
		for _, k := range keys {
			binary.LittleEndian.PutUint64(rec[:], k)
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
}

// keySource is one sorted, internally-deduplicated run of edge keys.
type keySource interface {
	// next returns the run's next key; ok is false at end of run.
	next() (k uint64, ok bool, err error)
	// close releases the run's resources.
	close() error
}

// memKeys is the in-memory residual run (the spill buffer's tail).
type memKeys struct {
	keys []uint64
	i    int
}

// next implements keySource.
func (s *memKeys) next() (uint64, bool, error) {
	if s.i >= len(s.keys) {
		return 0, false, nil
	}
	k := s.keys[s.i]
	s.i++
	return k, true, nil
}

// close implements keySource.
func (s *memKeys) close() error { return nil }

// fileKeys reads a spill file written by writeKeyFile.
type fileKeys struct {
	f  *os.File
	br *bufio.Reader
}

// next implements keySource.
func (s *fileKeys) next() (uint64, bool, error) {
	var rec [8]byte
	if _, err := io.ReadFull(s.br, rec[:]); err != nil {
		if err == io.EOF {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("graph: reading spill run %s: %w", s.f.Name(), err)
	}
	return binary.LittleEndian.Uint64(rec[:]), true, nil
}

// close implements keySource.
func (s *fileKeys) close() error { return s.f.Close() }

// closeSources closes every source, returning the first error.
func closeSources(srcs []keySource) error {
	var first error
	for _, s := range srcs {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// keyMerger merges sorted runs into one ascending deduplicated stream with
// a binary min-heap of (head key, source) pairs.
type keyMerger struct {
	srcs   []keySource
	heap   []mergeEntry
	last   uint64
	primed bool
	err    error
}

// mergeEntry is one heap element: a source's current head key.
type mergeEntry struct {
	key uint64
	src int
}

// newKeyMerger primes the heap with each source's first key.
func newKeyMerger(srcs []keySource) *keyMerger {
	m := &keyMerger{srcs: srcs}
	for i, s := range srcs {
		k, ok, err := s.next()
		if err != nil {
			m.err = err
			return m
		}
		if ok {
			m.heap = append(m.heap, mergeEntry{key: k, src: i})
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// next returns the globally next distinct key across all runs.
func (m *keyMerger) next() (uint64, bool, error) {
	if m.err != nil {
		return 0, false, m.err
	}
	for len(m.heap) > 0 {
		top := m.heap[0]
		k, ok, err := m.srcs[top.src].next()
		if err != nil {
			m.err = err
			return 0, false, err
		}
		if ok {
			m.heap[0] = mergeEntry{key: k, src: top.src}
			m.siftDown(0)
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
			if len(m.heap) > 0 {
				m.siftDown(0)
			}
		}
		// Runs are internally deduplicated; duplicates across runs surface
		// as consecutive equal keys here.
		if m.primed && top.key == m.last {
			continue
		}
		m.last, m.primed = top.key, true
		return top.key, true, nil
	}
	return 0, false, nil
}

// siftDown restores the min-heap property from index i.
func (m *keyMerger) siftDown(i int) {
	h := m.heap
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].key < h[small].key {
			small = l
		}
		if r < len(h) && h[r].key < h[small].key {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
