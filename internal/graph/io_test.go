package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleEdgeList = `# Directed graph (each unordered pair of nodes is saved once)
# Nodes: 5 Edges: 4
100 200
200 300
# a comment in the middle
300 100

400	500
500 400
400 400
`

func TestReadEdgeList(t *testing.T) {
	g, rm, err := ReadEdgeList(strings.NewReader(sampleEdgeList))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 5 {
		t.Errorf("|V| = %d, want 5", g.NumNodes())
	}
	// 500-400 is a reversed duplicate and 400-400 a self-loop: both dropped.
	if g.NumEdges() != 4 {
		t.Errorf("|E| = %d, want 4", g.NumEdges())
	}
	u, v := rm.ID(100), rm.ID(200)
	if !g.HasEdge(u, v) {
		t.Error("edge 100-200 missing after remap")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("loaded graph invalid: %v", err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Error("single-field line accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric id accepted")
	}
	if _, _, err := ReadEdgeList(strings.NewReader("1 b\n")); err == nil {
		t.Error("non-numeric second id accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, nil); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, rm2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape: got %v, want %v", g2, g)
	}
	// Dense ids are reassigned in first-seen order, so compare via labels.
	for _, e := range g.Edges() {
		if !g2.HasEdge(rm2.ID(int64(e.U)), rm2.ID(int64(e.V))) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestEdgeListRoundTripWithRemapper(t *testing.T) {
	src := "7 9\n9 11\n"
	g, rm, err := ReadEdgeList(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, rm); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "7 9") || !strings.Contains(out, "9 11") {
		t.Errorf("original labels not preserved:\n%s", out)
	}
}

// fmtEdgeList is WriteEdgeList's output as fmt formats it, the golden
// reference for the strconv writer.
func fmtEdgeList(g *Graph, rm *Remapper) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Undirected graph: |V|=%d |E|=%d\n# u v\n", g.NumNodes(), g.NumEdges())
	for _, e := range g.Edges() {
		if rm != nil {
			fmt.Fprintf(&sb, "%d %d\n", rm.Label(e.U), rm.Label(e.V))
		} else {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		}
	}
	return sb.String()
}

// edgeListGoldenCases are an identity path and a labelled cycle whose
// labels are negative and positive and reach both ends of the int64 range.
// Both outputs pass bufio's 4096-byte buffer, so a writer error can strike
// mid-list as well as at the final flush.
func edgeListGoldenCases() []struct {
	name string
	g    *Graph
	rm   *Remapper
} {
	path := make([]Edge, 599)
	for i := range path {
		path[i] = Edge{NodeID(i), NodeID(i + 1)}
	}
	const n = 150
	labels := make([]int64, n)
	cycle := make([]Edge, 0, n)
	for i := range labels {
		labels[i] = int64(i-n/2) * 61489146912365173
		cycle = append(cycle, Edge{NodeID(i), NodeID((i + 1) % n)})
	}
	labels[0], labels[n-1] = math.MinInt64, math.MaxInt64
	return []struct {
		name string
		g    *Graph
		rm   *Remapper
	}{
		{"identity", MustFromEdges(600, path), nil},
		{"labelled", MustFromEdges(n, cycle), RemapperFromLabels(labels)},
	}
}

// TestWriteEdgeListMatchesFmt pins the writer's bytes, header included, to
// fmt's %d formatting.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	for _, tc := range edgeListGoldenCases() {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, tc.g, tc.rm); err != nil {
			t.Fatalf("%s: WriteEdgeList: %v", tc.name, err)
		}
		if want := fmtEdgeList(tc.g, tc.rm); buf.String() != want {
			t.Errorf("%s: WriteEdgeList wrote\n%s\nwant\n%s", tc.name, buf.String(), want)
		}
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}})
	if err := WriteEdgeListFile(path, g, nil); err != nil {
		t.Fatalf("WriteEdgeListFile: %v", err)
	}
	g2, _, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatalf("ReadEdgeListFile: %v", err)
	}
	if g2.NumEdges() != 2 {
		t.Errorf("|E| after file round trip = %d, want 2", g2.NumEdges())
	}
}

func TestReadEdgeListFileMissing(t *testing.T) {
	if _, _, err := ReadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadSaveFileFormats(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.esc"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g, nil); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		g2, rm, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if g2.NumEdges() != 2 {
			t.Errorf("%s: |E| = %d, want 2", name, g2.NumEdges())
		}
		if rm == nil || rm.Len() != 3 {
			t.Errorf("%s: remapper missing or wrong size", name)
		}
		// Both formats yield an identity-usable remapper for dense inputs.
		if rm.Label(0) != 0 {
			t.Errorf("%s: label(0) = %d, want 0", name, rm.Label(0))
		}
	}
}

// TestLoadFileRejectsLegacyBinary pins that a file in the retired ESG1
// binary format is an error under either extension LoadFile dispatches on:
// the text parser rejects its bytes and the packed loader its magic.
func TestLoadFileRejectsLegacyBinary(t *testing.T) {
	var legacy bytes.Buffer
	legacy.WriteString("ESG1")
	for _, x := range []uint32{3, 2, 0, 1, 1, 2} { // |V|, |E|, then (u, v) pairs
		binary.Write(&legacy, binary.LittleEndian, x)
	}
	dir := t.TempDir()
	for _, name := range []string{"legacy.bin", "legacy.esc"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, legacy.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if g, _, err := LoadFile(path); err == nil {
			t.Errorf("LoadFile(%s) accepted an ESG1 file as %v", name, g)
		}
	}
}
