package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testEdgeListText builds a messy SNAP-style edge list with sparse 64-bit
// labels, duplicates, self-loops and comments, deterministic in seed.
func testEdgeListText(n, lines int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString("# test graph\n")
	for i := 0; i < lines; i++ {
		u := rng.Int63n(int64(n))*1000 - 5000
		v := rng.Int63n(int64(n))*1000 - 5000
		fmt.Fprintf(&sb, "%d %d\n", u, v)
	}
	return sb.String()
}

// loadTestGraph parses a testEdgeListText input in RAM.
func loadTestGraph(t *testing.T, text string) (*Graph, *Remapper) {
	t.Helper()
	g, rm, err := ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	return g, rm
}

// packToFile writes g to a temp .esc file and returns the path.
func packToFile(t *testing.T, g *Graph, rm *Remapper, opt PackWriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.esc")
	if err := WritePackedFile(path, g, rm, opt); err != nil {
		t.Fatalf("WritePackedFile: %v", err)
	}
	return path
}

// requireSameGraph asserts two graphs have identical CSR views and edge
// lists, and that their remappers agree on every label.
func requireSameGraph(t *testing.T, got, want *Graph, gotRM, wantRM *Remapper) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("shape: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	ge, we := got.Edges(), want.Edges()
	for i := range we {
		if ge[i] != we[i] {
			t.Fatalf("edge %d: got %v, want %v", i, ge[i], we[i])
		}
	}
	gc, wc := got.CSR(), want.CSR()
	for name, pair := range map[string][2][]int32{
		"Offsets": {gc.Offsets, wc.Offsets},
		"Targets": {gc.Targets, wc.Targets},
		"EdgeID":  {gc.EdgeID, wc.EdgeID},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("CSR %s length: got %d, want %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[1] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("CSR %s[%d]: got %d, want %d", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	if (gotRM == nil) != (wantRM == nil) {
		t.Fatalf("remapper presence: got %v, want %v", gotRM != nil, wantRM != nil)
	}
	if wantRM != nil {
		if gotRM.Len() != wantRM.Len() {
			t.Fatalf("remapper size: got %d, want %d", gotRM.Len(), wantRM.Len())
		}
		for u := 0; u < wantRM.Len(); u++ {
			if gotRM.Label(NodeID(u)) != wantRM.Label(NodeID(u)) {
				t.Fatalf("label of %d: got %d, want %d", u, gotRM.Label(NodeID(u)), wantRM.Label(NodeID(u)))
			}
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	g, rm := loadTestGraph(t, testEdgeListText(300, 2000, 1))
	path := packToFile(t, g, rm, PackWriteOptions{})
	p, err := OpenPacked(path)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer p.Close()
	if p.DegreeOrdered {
		t.Error("OrderKeep file claims DegreeOrdered")
	}
	requireSameGraph(t, p.Graph(), g, p.Remapper(), rm)
	if err := p.Graph().Validate(); err != nil {
		t.Errorf("packed graph invalid: %v", err)
	}
	// Neighbors must work through the aliased adjacency.
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		gn, wn := p.Graph().Neighbors(u), g.Neighbors(u)
		if len(gn) != len(wn) {
			t.Fatalf("node %d degree: got %d, want %d", u, len(gn), len(wn))
		}
	}
}

func TestPackedIdentityLabels(t *testing.T) {
	// Dense 0..n-1 input in order: labels are the identity and the Labels
	// section must be omitted.
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	dense := packToFile(t, g, nil, PackWriteOptions{})
	fi, err := os.Stat(dense)
	if err != nil {
		t.Fatal(err)
	}
	wantSize := newPackLayout(4, 3, true).total
	if fi.Size() != wantSize {
		t.Errorf("identity-labels file is %d bytes, want %d (Labels section should be omitted)", fi.Size(), wantSize)
	}
	p, err := OpenPacked(dense)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer p.Close()
	for u := NodeID(0); u < 4; u++ {
		if p.Remapper().Label(u) != int64(u) {
			t.Errorf("identity label of %d = %d", u, p.Remapper().Label(u))
		}
	}
}

func TestPackedDegreeOrder(t *testing.T) {
	g, rm := loadTestGraph(t, testEdgeListText(100, 600, 3))
	path := packToFile(t, g, rm, PackWriteOptions{Order: OrderDegree})
	p, err := OpenPacked(path)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer p.Close()
	if !p.DegreeOrdered {
		t.Error("OrderDegree file does not claim DegreeOrdered")
	}
	pg := p.Graph()
	if pg.NumNodes() != g.NumNodes() || pg.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed by relabel: |V|=%d |E|=%d", pg.NumNodes(), pg.NumEdges())
	}
	for u := 1; u < pg.NumNodes(); u++ {
		if pg.Degree(NodeID(u)) > pg.Degree(NodeID(u-1)) {
			t.Fatalf("degrees not descending: deg(%d)=%d > deg(%d)=%d",
				u, pg.Degree(NodeID(u)), u-1, pg.Degree(NodeID(u-1)))
		}
	}
	// The edge multiset under original labels must be preserved.
	want := make(map[[2]int64]bool, g.NumEdges())
	for _, e := range g.Edges() {
		a, b := rm.Label(e.U), rm.Label(e.V)
		if a > b {
			a, b = b, a
		}
		want[[2]int64{a, b}] = true
	}
	for _, e := range pg.Edges() {
		a, b := p.Remapper().Label(e.U), p.Remapper().Label(e.V)
		if a > b {
			a, b = b, a
		}
		if !want[[2]int64{a, b}] {
			t.Fatalf("edge (%d,%d) not in the original graph", a, b)
		}
		delete(want, [2]int64{a, b})
	}
	if len(want) != 0 {
		t.Fatalf("%d original edges missing after relabel", len(want))
	}
}

func TestSaveLoadFilePacked(t *testing.T) {
	g, rm := loadTestGraph(t, testEdgeListText(50, 200, 5))
	path := filepath.Join(t.TempDir(), "g.esc")
	if err := SaveFile(path, g, rm); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, rm2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	requireSameGraph(t, g2, g, rm2, rm)
}

// rewritePacked applies mutate to a packed file's bytes and rewrites it
// with a freshly recomputed payload checksum, so structural corruption
// reaches validatePacked rather than being caught by the CRC.
func rewritePacked(t *testing.T, path string, mutate func(data []byte)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(data)
	binary.LittleEndian.PutUint64(data[32:40], uint64(crc32.Checksum(data[packHeaderSize:], castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPackedCorruption(t *testing.T) {
	g, rm := loadTestGraph(t, testEdgeListText(60, 300, 7))
	pack := func(t *testing.T) string { return packToFile(t, g, rm, PackWriteOptions{}) }
	mustFail := func(t *testing.T, path, wantSub string) {
		t.Helper()
		if _, err := OpenPacked(path); err == nil {
			t.Fatalf("corrupt file opened cleanly (want error containing %q)", wantSub)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		path := pack(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-16], 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, path, "truncated or corrupt")
	})
	t.Run("header-only", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "tiny.esc")
		if err := os.WriteFile(path, []byte("ESC1"), 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, path, "truncated")
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := pack(t)
		rewritePacked(t, path, func(data []byte) { data[0] = 'X' })
		mustFail(t, path, "bad packed magic")
	})
	t.Run("bad-version", func(t *testing.T) {
		path := pack(t)
		rewritePacked(t, path, func(data []byte) {
			binary.LittleEndian.PutUint32(data[4:8], 99)
		})
		mustFail(t, path, "unsupported packed format version")
	})
	t.Run("version-1", func(t *testing.T) {
		// Version 1 stored the endpoints again as split EdgeU/EdgeV
		// sections; there is no reader for it.
		path := pack(t)
		rewritePacked(t, path, func(data []byte) {
			binary.LittleEndian.PutUint32(data[4:8], 1)
		})
		mustFail(t, path, "unsupported packed format version 1 (want 3); repack the edge list with gpack")
	})
	t.Run("version-2", func(t *testing.T) {
		// Version 2 stored each slot's reverse slot as a Mate section;
		// there is no reader for it either.
		path := pack(t)
		rewritePacked(t, path, func(data []byte) {
			binary.LittleEndian.PutUint32(data[4:8], 2)
		})
		mustFail(t, path, "unsupported packed format version 2 (want 3); repack the edge list with gpack")
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		path := pack(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0x40 // flip payload bits, leave the header CRC
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mustFail(t, path, "checksum")
	})
	t.Run("oversized-counts", func(t *testing.T) {
		path := pack(t)
		rewritePacked(t, path, func(data []byte) {
			binary.LittleEndian.PutUint64(data[16:24], uint64(1)<<40)
		})
		mustFail(t, path, "int32")
	})
	t.Run("non-canonical-edge-order", func(t *testing.T) {
		path := pack(t)
		l := newPackLayout(g.NumNodes(), g.NumEdges(), false)
		rewritePacked(t, path, func(data []byte) {
			// Swap edges 0 and 1 of the Edges section, so only the
			// ordering invariant is violated.
			a := data[l.edgesOff : l.edgesOff+8]
			b := data[l.edgesOff+8 : l.edgesOff+16]
			var tmp [8]byte
			copy(tmp[:], a)
			copy(a, b)
			copy(b, tmp[:])
		})
		mustFail(t, path, "canonical")
	})
	t.Run("broken-offsets", func(t *testing.T) {
		path := pack(t)
		l := newPackLayout(g.NumNodes(), g.NumEdges(), false)
		rewritePacked(t, path, func(data []byte) {
			// Offsets[1] beyond Offsets[2] breaks monotonicity.
			binary.LittleEndian.PutUint32(data[l.offsetsOff+4:], uint32(2*g.NumEdges())+7)
		})
		mustFail(t, path, "")
	})
	t.Run("broken-edge-id", func(t *testing.T) {
		// Two swapped EdgeID entries stay in bounds, so the load-time
		// sweep passes them (by design — the deep cross-check is Verify's
		// job), and each slot then names an edge it does not belong to,
		// which PackedGraph.Verify catches.
		path := pack(t)
		l := newPackLayout(g.NumNodes(), g.NumEdges(), false)
		rewritePacked(t, path, func(data []byte) {
			a := data[l.edgeIDOff : l.edgeIDOff+4]
			b := data[l.edgeIDOff+4 : l.edgeIDOff+8]
			if [4]byte(a) == [4]byte(b) {
				t.Fatal("slots 0 and 1 share an edge id; swapping them corrupts nothing")
			}
			var tmp [4]byte
			copy(tmp[:], a)
			copy(a, b)
			copy(b, tmp[:])
		})
		p, err := OpenPacked(path)
		if err != nil {
			t.Fatalf("bounds-clean edge id corruption rejected at load: %v", err)
		}
		defer p.Close()
		if err := p.Verify(); err == nil {
			t.Fatal("Verify accepted two swapped edge ids")
		}
	})
	t.Run("verify-clean", func(t *testing.T) {
		p, err := OpenPacked(pack(t))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.Verify(); err != nil {
			t.Errorf("Verify rejected a well-formed file: %v", err)
		}
	})
}

// TestWritePackedStreams pins that WritePacked works against a plain
// io.Writer (no Seek): the checksum pass runs before the emit pass.
func TestWritePackedStreams(t *testing.T) {
	g, rm := loadTestGraph(t, testEdgeListText(40, 150, 11))
	var buf bytes.Buffer
	if err := WritePacked(&buf, g, rm, PackWriteOptions{}); err != nil {
		t.Fatalf("WritePacked: %v", err)
	}
	p, err := loadPacked(buf.Bytes(), int64(buf.Len()))
	if err != nil {
		t.Fatalf("loadPacked of streamed bytes: %v", err)
	}
	requireSameGraph(t, p.Graph(), g, p.Remapper(), rm)
}
