package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"unsafe"

	"edgeshed/internal/obs"
)

// Loading an ESC1 file is one mmap plus pointer fixups: every array of the
// Graph — Offsets, Targets, EdgeID, Mate and the canonical []Edge list — is
// a slice header pointed into the page-aligned mapping, so a billion-edge
// graph "loads" without per-node or per-edge work and pages in lazily as
// kernels touch it. The only full passes over the data are the CRC-32C
// verification and the index checks, both straight-line integer sweeps
// that run at memory speed.
//
// Aliasing the mapping requires the file's little-endian layout to match
// the host; on a big-endian host every section is decoded into heap copies
// instead, preserving correctness at copy cost.

// hostLittleEndian reports whether the running machine stores integers
// little-endian, the precondition for aliasing file bytes as typed arrays.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// dataPtr returns the address of b's first byte for raw syscalls.
func dataPtr(b []byte) unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(b))
}

// PackedGraph is an ESC1 file opened for reading: the Graph view over the
// mapping, the label remapper, and the mapping's lifetime. The Graph (its
// CSR arrays, neighbor lists and edge list) aliases the mapping — after
// Close those slices must not be touched. Callers that keep the graph for the
// process lifetime (every cmd binary) may simply never Close.
type PackedGraph struct {
	g       *Graph
	rm      *Remapper
	release func() error
	// DegreeOrdered reports whether the file was packed with OrderDegree:
	// dense ids are a degree-descending relabeling of the original input's.
	DegreeOrdered bool
}

// Graph returns the loaded graph. Valid until Close.
func (p *PackedGraph) Graph() *Graph { return p.g }

// Remapper returns the dense-id → external-label remapper stored in the
// file (the identity for dense inputs). Valid until Close.
func (p *PackedGraph) Remapper() *Remapper { return p.rm }

// Verify runs Graph.Validate over the mapped arrays. Loading already
// checksummed the payload and bounds-checked every index; Verify
// additionally proves that the adjacency and the canonical edge list agree.
// gpack -verify calls this.
func (p *PackedGraph) Verify() error { return p.g.Validate() }

// Close unmaps the file. The Graph and Remapper must not be used
// afterwards.
func (p *PackedGraph) Close() error {
	if p.release == nil {
		return nil
	}
	rel := p.release
	p.release = nil
	return rel()
}

// OpenPacked maps an ESC1 packed-CSR file and returns the graph view over
// it. Before the graph is handed out, the payload checksum, the bounds of
// every index and the canonical edge list are verified, so a truncated,
// bit-rotted or index-corrupt file never becomes a Graph and no kernel can
// fault on one that does. Whether the adjacency agrees with the edge list
// is not checked here (it costs several times the open); call Verify for
// that.
func OpenPacked(path string) (*PackedGraph, error) {
	return openPackedObs(path, nil)
}

// openPackedObs is OpenPacked with ingest instrumentation: a "map" span
// for the mmap + checksum + index-check work and the ingest.bytes counter.
func openPackedObs(path string, sp *obs.Span) (*PackedGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	span := sp.Start("map")
	defer span.End()
	data, release, err := mapFile(f, fi.Size(), false)
	if err != nil {
		return nil, err
	}
	p, err := loadPacked(data, fi.Size())
	if err != nil {
		release()
		return nil, err
	}
	p.release = release
	sp.Counter("ingest.bytes").Add(fi.Size())
	sp.Counter("ingest.edges").Add(int64(p.g.NumEdges()))
	return p, nil
}

// loadPacked builds the graph view over a complete ESC1 image.
func loadPacked(data []byte, size int64) (*PackedGraph, error) {
	h, l, err := parsePackHeader(data, size)
	if err != nil {
		return nil, err
	}
	if sum := crc32.Checksum(data[packHeaderSize:], castagnoli); sum != h.checksum {
		return nil, fmt.Errorf("graph: packed payload checksum %08x does not match header %08x (corrupt file)", sum, h.checksum)
	}
	n, m := h.n, h.m
	g := &Graph{
		csr: CSR{
			Offsets: viewInt32s(data, l.offsetsOff, n+1),
			Targets: viewInt32s(data, l.targetsOff, 2*m),
			EdgeID:  viewInt32s(data, l.edgeIDOff, 2*m),
			Mate:    viewInt32s(data, l.mateOff, 2*m),
		},
		edges: viewEdges(data, l.edgesOff, m),
	}
	if err := checkIndexes(&g.csr, g.edges); err != nil {
		return nil, err
	}

	var rm *Remapper
	if h.flags&packFlagIdentityLabels != 0 {
		rm = IdentityRemapper(n)
	} else {
		rm = RemapperFromLabels(viewInt64s(data, l.labelsOff, n))
	}
	return &PackedGraph{
		g:             g,
		rm:            rm,
		DegreeOrdered: h.flags&packFlagDegreeOrdered != 0,
	}, nil
}

// viewInt32s returns count int32s at byte offset off — aliasing the data
// on aligned little-endian hosts, decoding a copy otherwise.
func viewInt32s(data []byte, off int64, count int) []int32 {
	if count == 0 {
		return nil
	}
	b := data[off : off+int64(count)*4]
	if hostLittleEndian && uintptr(dataPtr(b))%4 == 0 {
		return unsafe.Slice((*int32)(dataPtr(b)), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// viewInt64s is viewInt32s for int64 sections.
func viewInt64s(data []byte, off int64, count int) []int64 {
	if count == 0 {
		return nil
	}
	b := data[off : off+int64(count)*8]
	if hostLittleEndian && uintptr(dataPtr(b))%8 == 0 {
		return unsafe.Slice((*int64)(dataPtr(b)), count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// viewEdges returns the interleaved Edges section as []Edge. Edge is two
// int32 fields (U then V) with no padding, so on a little-endian host the
// struct's byte image is exactly the file's.
func viewEdges(data []byte, off int64, count int) []Edge {
	if count == 0 {
		return nil
	}
	b := data[off : off+int64(count)*8]
	if hostLittleEndian && uintptr(dataPtr(b))%4 == 0 {
		return unsafe.Slice((*Edge)(dataPtr(b)), count)
	}
	out := make([]Edge, count)
	for i := range out {
		out[i].U = NodeID(binary.LittleEndian.Uint32(b[i*8:]))
		out[i].V = NodeID(binary.LittleEndian.Uint32(b[i*8+4:]))
	}
	return out
}
