package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// The ESC1 packed-CSR format is the out-of-core substrate for SNAP-scale
// graphs: a Graph's arrays written to disk exactly as it holds them in
// memory, so loading is one mmap plus slice-header fixups with zero
// per-edge parsing (see mmap.go): a .esc file *is* the graph.
//
// Layout of format version 2, all little-endian:
//
//	header (64 bytes)
//	  [0:4)   magic "ESC1"
//	  [4:8)   uint32 format version (currently 2)
//	  [8:16)  uint64 flags (packFlagDegreeOrdered, packFlagIdentityLabels)
//	  [16:24) uint64 |V|
//	  [24:32) uint64 |E|
//	  [32:40) uint64 CRC-32C (Castagnoli) of the payload, in the low bits
//	  [40:64) reserved, zero
//	payload (sections back to back; the 8-byte section leads, so every
//	section is naturally aligned inside the page-aligned mapping)
//	  Labels  |V| × int64    original external node ids; omitted when the
//	                         identity-labels flag is set (dense inputs)
//	  Offsets (|V|+1) × int32
//	  Targets 2|E| × int32
//	  EdgeID  2|E| × int32
//	  Mate    2|E| × int32
//	  Edges   |E| × (int32 U, int32 V)  the canonical edge list, interleaved
//	                                    so it aliases directly as []Edge
//
// A file is 64 + 8|V| (without the identity flag) + 4(|V|+1) + 32|E|
// bytes. Version 1 also stored every endpoint a second time, as split
// EdgeU/EdgeV sections; it is rejected by the version check.
//
// What loading proves is the payload checksum, the bounds of every index
// and the canonical edge list (checkIndexes): a truncated, bit-rotted or
// index-corrupt file never becomes a Graph, and no kernel can fault on one
// that does. Loading does not prove that the adjacency and the edge list
// agree — that is checkAgreement, behind Graph.Validate, PackedGraph.Verify
// and gpack -verify — because it costs several times the whole open.

// packMagic identifies an ESC1 packed-CSR file.
var packMagic = [4]byte{'E', 'S', 'C', '1'}

// packVersion is the current ESC1 format version.
const packVersion = 2

// packHeaderSize is the fixed byte size of the ESC1 header.
const packHeaderSize = 64

// ESC1 header flag bits.
const (
	// packFlagDegreeOrdered marks a file whose dense ids were relabelled in
	// degree-descending order at pack time (OrderDegree).
	packFlagDegreeOrdered = 1 << 0
	// packFlagIdentityLabels marks a file with no Labels section: dense id
	// u carries external label u.
	packFlagIdentityLabels = 1 << 1
)

// castagnoli is the CRC-32C table used for payload checksums; the
// Castagnoli polynomial is hardware-accelerated on amd64 and arm64, so
// checksumming runs at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Order selects the dense-id layout of a packed graph.
type Order int

// The supported packing orders.
const (
	// OrderKeep preserves the graph's existing dense ids, so a packed file
	// loads into the exact CSR the in-RAM build would produce — seeded
	// algorithms give bit-identical results from either path.
	OrderKeep Order = iota
	// OrderDegree relabels nodes in degree-descending order (ties by old
	// id) before packing. High-degree hubs land at the front of every
	// array, improving locality for traversal kernels — but the relabeling
	// changes edge ids and therefore seeded tie-breaks, so results are
	// equivalent, not bit-identical, to the unpacked graph's.
	OrderDegree
)

// packLayout computes the byte offsets of every ESC1 section for a graph
// with n nodes and m edges. Offsets are relative to the start of the file;
// the payload begins at packHeaderSize.
type packLayout struct {
	n, m       int
	identity   bool
	labelsOff  int64
	offsetsOff int64
	targetsOff int64
	edgeIDOff  int64
	mateOff    int64
	edgesOff   int64
	total      int64 // total file size
}

// newPackLayout lays out a file for n nodes and m edges.
func newPackLayout(n, m int, identity bool) packLayout {
	l := packLayout{n: n, m: m, identity: identity}
	off := int64(packHeaderSize)
	l.labelsOff = off
	if !identity {
		off += int64(n) * 8
	}
	l.offsetsOff = off
	off += int64(n+1) * 4
	l.targetsOff = off
	off += int64(2*m) * 4
	l.edgeIDOff = off
	off += int64(2*m) * 4
	l.mateOff = off
	off += int64(2*m) * 4
	l.edgesOff = off
	off += int64(m) * 8
	l.total = off
	return l
}

// payloadSize is the byte length of everything after the header.
func (l packLayout) payloadSize() int64 { return l.total - packHeaderSize }

// PackWriteOptions tunes WritePacked.
type PackWriteOptions struct {
	// Order selects the dense-id layout; the default OrderKeep preserves
	// the graph's ids bit-for-bit.
	Order Order
}

// identityLabels reports whether rm maps every dense id in [0, n) to
// itself — in which case the Labels section is omitted and the file carries
// the identity-labels flag. A nil remapper is identity by definition.
func identityLabels(rm *Remapper, n int) bool {
	if rm == nil || rm.identity > 0 {
		return true
	}
	for u := 0; u < n; u++ {
		if rm.labels[u] != int64(u) {
			return false
		}
	}
	return true
}

// WritePacked writes g in the ESC1 packed-CSR format. If rm is non-nil its
// labels are stored so the packed file round-trips the original external
// node ids; a nil rm stores identity labels. The write streams in two
// passes (one to checksum, one to emit), so w needs no seeking.
func WritePacked(w io.Writer, g *Graph, rm *Remapper, opt PackWriteOptions) error {
	if err := csrBounds(g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var flags uint64
	if opt.Order == OrderDegree {
		var err error
		g, rm, err = relabelByDegree(g, rm)
		if err != nil {
			return err
		}
		flags |= packFlagDegreeOrdered
	}
	n, m := g.NumNodes(), g.NumEdges()
	identity := identityLabels(rm, n)
	if identity {
		flags |= packFlagIdentityLabels
	}
	c := g.CSR()

	// payload streams every section in layout order to enc.
	payload := func(enc *sectionEncoder) {
		if !identity {
			enc.int64s(labelSlice(rm, n))
		}
		enc.int32s(c.Offsets)
		enc.int32s(c.Targets)
		enc.int32s(c.EdgeID)
		enc.int32s(c.Mate)
		enc.edges(g.Edges())
	}

	// Pass 1: checksum the payload without writing it.
	h := crc32.New(castagnoli)
	henc := &sectionEncoder{w: h}
	payload(henc)
	if henc.err != nil {
		return henc.err
	}

	// Pass 2: header, then the payload for real.
	var hdr [packHeaderSize]byte
	putPackHeader(hdr[:], flags, n, m, h.Sum32())
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	enc := &sectionEncoder{w: bw}
	payload(enc)
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// WritePackedFile writes g to path in the ESC1 format, creating or
// truncating the file.
func WritePackedFile(path string, g *Graph, rm *Remapper, opt PackWriteOptions) error {
	return writeFileWith(path, func(w io.Writer) error { return WritePacked(w, g, rm, opt) })
}

// labelSlice returns rm's first n labels as a contiguous slice,
// materializing lazy modes.
func labelSlice(rm *Remapper, n int) []int64 {
	if rm.identity > 0 || rm.labels == nil {
		out := make([]int64, n)
		for u := range out {
			out[u] = rm.Label(NodeID(u))
		}
		return out
	}
	return rm.labels[:n]
}

// relabelByDegree returns a copy of g with nodes renumbered in
// degree-descending order (ties broken by old id ascending) and a remapper
// carrying the original external labels under the new ids.
func relabelByDegree(g *Graph, rm *Remapper) (*Graph, *Remapper, error) {
	n := g.NumNodes()
	byDeg := make([]NodeID, n)
	for u := range byDeg {
		byDeg[u] = NodeID(u)
	}
	sort.Slice(byDeg, func(i, j int) bool {
		du, dv := g.Degree(byDeg[i]), g.Degree(byDeg[j])
		if du != dv {
			return du > dv
		}
		return byDeg[i] < byDeg[j]
	})
	newID := make([]NodeID, n)
	labels := make([]int64, n)
	for rank, old := range byDeg {
		newID[old] = NodeID(rank)
		if rm != nil {
			labels[rank] = rm.Label(old)
		} else {
			labels[rank] = int64(old)
		}
	}
	keys := make([]uint64, 0, g.NumEdges())
	for _, e := range g.Edges() {
		keys = append(keys, packKey(newID[e.U], newID[e.V]))
	}
	h, err := graphFromKeys(n, keys, 0)
	if err != nil {
		return nil, nil, err
	}
	return h, RemapperFromLabels(labels), nil
}

// sectionEncoder streams typed arrays as little-endian bytes through a
// reusable scratch buffer, remembering the first write error so callers
// check once at the end. hash.Hash32 and bufio.Writer both satisfy w.
type sectionEncoder struct {
	w   io.Writer
	buf [64 << 10]byte
	err error
}

// int32s encodes xs little-endian. []NodeID is []int32 (NodeID is an
// alias), so CSR sections pass through directly.
func (enc *sectionEncoder) int32s(xs []int32) {
	if enc.err != nil {
		return
	}
	i := 0
	for i < len(xs) {
		j := 0
		for i < len(xs) && j+4 <= len(enc.buf) {
			binary.LittleEndian.PutUint32(enc.buf[j:], uint32(xs[i]))
			i++
			j += 4
		}
		if _, err := enc.w.Write(enc.buf[:j]); err != nil {
			enc.err = err
			return
		}
	}
}

// int64s encodes xs little-endian.
func (enc *sectionEncoder) int64s(xs []int64) {
	if enc.err != nil {
		return
	}
	i := 0
	for i < len(xs) {
		j := 0
		for i < len(xs) && j+8 <= len(enc.buf) {
			binary.LittleEndian.PutUint64(enc.buf[j:], uint64(xs[i]))
			i++
			j += 8
		}
		if _, err := enc.w.Write(enc.buf[:j]); err != nil {
			enc.err = err
			return
		}
	}
}

// edges encodes the canonical edge list interleaved as (U, V) int32 pairs —
// the byte image of a []Edge on a little-endian machine.
func (enc *sectionEncoder) edges(es []Edge) {
	if enc.err != nil {
		return
	}
	i := 0
	for i < len(es) {
		j := 0
		for i < len(es) && j+8 <= len(enc.buf) {
			binary.LittleEndian.PutUint32(enc.buf[j:], uint32(es[i].U))
			binary.LittleEndian.PutUint32(enc.buf[j+4:], uint32(es[i].V))
			i++
			j += 8
		}
		if _, err := enc.w.Write(enc.buf[:j]); err != nil {
			enc.err = err
			return
		}
	}
}

// putPackHeader encodes an ESC1 header into hdr, reserved bytes zeroed.
func putPackHeader(hdr []byte, flags uint64, n, m int, checksum uint32) {
	copy(hdr[0:4], packMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], packVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], flags)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(m))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(checksum))
	clear(hdr[40:packHeaderSize])
}

// packHeader is the decoded ESC1 header.
type packHeader struct {
	flags    uint64
	n, m     int
	checksum uint32
}

// parsePackHeader decodes and sanity-checks an ESC1 header against the
// file's total size: magic, version, counts within CSR bounds, and the
// exact file length the layout implies (so truncation is detected before
// any array is touched).
func parsePackHeader(data []byte, size int64) (packHeader, packLayout, error) {
	var h packHeader
	if size < packHeaderSize || len(data) < packHeaderSize {
		return h, packLayout{}, fmt.Errorf("graph: packed file truncated: %d bytes, want at least the %d-byte header", size, packHeaderSize)
	}
	if [4]byte(data[0:4]) != packMagic {
		return h, packLayout{}, fmt.Errorf("graph: bad packed magic %q, want %q", data[0:4], packMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != packVersion {
		return h, packLayout{}, fmt.Errorf("graph: unsupported packed format version %d (want %d)", v, packVersion)
	}
	h.flags = binary.LittleEndian.Uint64(data[8:16])
	un := binary.LittleEndian.Uint64(data[16:24])
	um := binary.LittleEndian.Uint64(data[24:32])
	h.checksum = uint32(binary.LittleEndian.Uint64(data[32:40]))
	if un > uint64(1)<<31-1 || um > (uint64(1)<<31-1)/2 {
		return h, packLayout{}, fmt.Errorf("graph: packed header counts |V|=%d |E|=%d exceed the int32 CSR index space", un, um)
	}
	h.n, h.m = int(un), int(um)
	l := newPackLayout(h.n, h.m, h.flags&packFlagIdentityLabels != 0)
	if size != l.total {
		return h, packLayout{}, fmt.Errorf("graph: packed file is %d bytes, want %d for |V|=%d |E|=%d (truncated or corrupt)", size, l.total, h.n, h.m)
	}
	return h, l, nil
}
