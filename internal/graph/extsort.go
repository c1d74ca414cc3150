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
)

// External-sort packing: edge-list → ESC1 without ever holding the graph in
// memory. The canonical uint64 edge keys stream out of the parallel parser
// into a bounded buffer; each time the buffer fills it is sorted,
// deduplicated and spilled to a temp file, and the spill files are k-way
// merged twice — once to count degrees (pass 1), once to fill the CSR
// arrays through a read-write mapping of the output file (pass 2). Peak
// memory is the key buffer (MemBudget) plus two O(|V|) int32 arrays
// (degrees and fill cursors), never the O(|E|) edge set.
//
// Pass 2 places every edge with slotFill, the fill step that builds every
// in-RAM Graph, so the packed file is byte-identical to WritePackedFile of
// the in-RAM graph — pinned by test. The remapper is the one in-memory
// structure proportional to |V| that cannot be avoided: first-seen dense-id
// assignment needs the id map.

// defaultMemBudget is the spill buffer size when PackOptions.MemBudget is
// unset: 256 MiB of keys, 32 Mi edges per spill chunk.
const defaultMemBudget = 256 << 20

// PackOptions tunes PackEdgeListFile.
type PackOptions struct {
	// Order must be OrderKeep: degree relabeling needs the whole graph and
	// therefore the in-RAM path (LoadFile + WritePackedFile).
	Order Order
	// MemBudget bounds the edge-key spill buffer, in bytes; <= 0 selects
	// defaultMemBudget. O(|V|) structures (remapper, degree counts, fill
	// cursors) are not charged against it.
	MemBudget int64
	// TmpDir is where spill chunks go; empty means the system temp dir.
	TmpDir string
	// Workers is the parse worker count; <= 0 selects GOMAXPROCS.
	Workers int
	// Obs, when non-nil, receives the phase spans ("parse", "merge.count",
	// "merge.fill") and pack.* counters.
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
// the list in RAM and calling WritePackedFile with OrderKeep.
func PackEdgeListFile(inPath, outPath string, opt PackOptions) (*PackStats, error) {
	if opt.Order != OrderKeep {
		return nil, fmt.Errorf("graph: external-sort packing supports OrderKeep only; degree ordering needs the in-RAM packer (LoadFile + WritePackedFile)")
	}
	if !hostLittleEndian {
		return nil, fmt.Errorf("graph: external-sort packing writes through a little-endian mapping and is unsupported on big-endian hosts; use the in-RAM packer")
	}
	budget := opt.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}
	capKeys := int(budget / 8)
	if capKeys < 16 {
		capKeys = 16
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

	// Spill phase: buffer keys, and each time the budget fills, sort +
	// dedup + write one run. The residual buffer stays in memory as the
	// final (sorted) run.
	stats := &PackStats{}
	var chunkPaths []string
	buf := make([]uint64, 0, capKeys)
	spill := func() error {
		buf = sortedRun(buf)
		path := filepath.Join(tmpDir, fmt.Sprintf("run-%06d", len(chunkPaths)))
		if err := writeKeyFile(path, buf); err != nil {
			return err
		}
		chunkPaths = append(chunkPaths, path)
		stats.SpilledKeys += int64(len(buf))
		opt.Obs.Counter("pack.spill.chunks").Add(1)
		opt.Obs.Counter("pack.spill.keys").Add(int64(len(buf)))
		buf = buf[:0]
		return nil
	}
	rm, err := scanEdgeList(in, elOpt, ingestChunkSize, func(key uint64) error {
		buf = append(buf, key)
		if len(buf) == cap(buf) {
			return spill()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	buf = sortedRun(buf)
	n := rm.Len()
	stats.Nodes = n

	openSources := func() ([]keySource, error) {
		srcs := make([]keySource, 0, len(chunkPaths)+1)
		for _, p := range chunkPaths {
			f, err := os.Open(p)
			if err != nil {
				closeSources(srcs)
				return nil, err
			}
			srcs = append(srcs, &fileKeys{f: f, br: bufio.NewReaderSize(f, 256<<10)})
		}
		if len(buf) > 0 {
			srcs = append(srcs, &memKeys{keys: buf})
		}
		return srcs, nil
	}

	// Pass 1: merge all runs to count per-node degrees and the deduplicated
	// edge total.
	count := opt.Obs.Start("merge.count")
	deg := make([]int32, n+1) // deg[u+1] is u's degree: Offsets before the prefix sum
	m := 0
	{
		srcs, err := openSources()
		if err != nil {
			count.End()
			return nil, err
		}
		mg := newKeyMerger(srcs)
		for {
			k, ok, err := mg.next()
			if err != nil {
				closeSources(srcs)
				count.End()
				return nil, err
			}
			if !ok {
				break
			}
			if int64(m) >= int64(1)<<31/2 {
				closeSources(srcs)
				count.End()
				return nil, csrBounds(n, m+1)
			}
			e := unpackKey(k)
			deg[e.U+1]++
			deg[e.V+1]++
			m++
		}
		if err := closeSources(srcs); err != nil {
			count.End()
			return nil, err
		}
	}
	count.End()
	if err := csrBounds(n, m); err != nil {
		return nil, err
	}
	stats.Edges = m
	stats.SpillChunks = len(chunkPaths)

	// Lay out and create the output file, then fill it through a shared
	// read-write mapping: pass 2's CSR stores land directly in the page
	// cache and the kernel writes them back.
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
	copy(c.Offsets, deg)

	// Pass 2: merge again and place every edge with the in-RAM graphs'
	// fill step, so the file is byte-identical to the in-RAM pack.
	fill := opt.Obs.Start("merge.fill")
	fill.SetTotal(int64(m))
	slots := newSlotFill(&c)
	{
		srcs, err := openSources()
		if err != nil {
			fill.End()
			return nil, err
		}
		mg := newKeyMerger(srcs)
		id := int32(0)
		for {
			k, ok, err := mg.next()
			if err != nil {
				closeSources(srcs)
				fill.End()
				return nil, err
			}
			if !ok {
				break
			}
			e := unpackKey(k)
			edges[id] = e
			slots.place(id, e)
			id++
			fill.Done(1)
		}
		if err := closeSources(srcs); err != nil {
			fill.End()
			return nil, err
		}
		if int(id) != m {
			fill.End()
			return nil, fmt.Errorf("graph: merge passes disagree: counted %d edges, filled %d", m, id)
		}
	}
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

// sortedRun sorts and deduplicates a key buffer in place, returning the
// shrunken slice (capacity preserved for reuse).
func sortedRun(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
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
