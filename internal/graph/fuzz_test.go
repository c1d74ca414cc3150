package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts the text parser never panics and that any graph
// it accepts satisfies the package invariants. Each input is also parsed in
// chunks of 1, 2 and 7 bytes as well as the default, at 1 and 3 workers, so
// that small inputs cross chunk boundaries: the graph, the labels and any
// error, line number included, must not change. An all-ASCII input must
// load exactly as the seed oracle loads it (the loader's contract, see
// snap.go). Every line the one-pass plainPair accepts must give the same
// ids on the general path. An accepted graph written back by
// WriteEdgeList must read back to the same labelled edge set.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("1 2\n2 3\n")
	f.Add("# comment\n\n10 20\n20 10\n10 10\n")
	f.Add("1")
	f.Add("a b")
	f.Add("9223372036854775807 -9223372036854775808\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Add("1 2\r\n\t3   4 extra\n# c\n5 6\n7\n")
	f.Add("-1 -2\n-2 -3\n\n\n-3 -1\n4 x\n")
	f.Add("123456789012345678 1\n1234567890123456789 2\n99999999999999999999 3\n007\t\t08\n1 2 3\n4 5\r\n6 7")
	f.Add("5 999999999999999999\n5 9999999999999999999\n9999999999999999999 5\n")
	f.Add("1\v2\n3\f4\n5\r6\n\v\f\n\t#x\n7 8\v\f")
	f.Fuzz(func(t *testing.T, data string) {
		for rest := []byte(data); len(rest) > 0; {
			u, v, n := plainPair(rest)
			line, size := rest, len(rest)
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, size = rest[:i], i+1
			}
			if n > 0 {
				gu, gv, err := parsePair(line)
				if n != size || err != nil || gu != u || gv != v {
					t.Fatalf("plainPair(%q) = %d, %d over %d bytes; general path %d, %d, %v over %d", line, u, v, n, gu, gv, err, size)
				}
			}
			rest = rest[size:]
		}
		g, rm, err := readEdgeList(strings.NewReader(data), EdgeListOptions{Workers: 1}, ingestChunkSize)
		if !strings.ContainsFunc(data, func(r rune) bool { return r >= 0x80 }) {
			wantG, wantRM, wantErr := seedReadEdgeList(strings.NewReader(data))
			requireEqualLoads(t, "against the seed oracle", wantG, wantRM, wantErr, g, rm, err)
		}
		for _, chunk := range []int{1, 2, 7, ingestChunkSize} {
			for _, workers := range []int{1, 3} {
				g2, rm2, err2 := readEdgeList(strings.NewReader(data), EdgeListOptions{Workers: workers}, chunk)
				requireEqualLoads(t, fmt.Sprintf("chunk %d, %d workers", chunk, workers), g, rm, err, g2, rm2, err2)
			}
		}
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph invalid: %v", err)
		}
		if rm.Len() != g.NumNodes() {
			t.Fatalf("remapper has %d labels for %d nodes", rm.Len(), g.NumNodes())
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g, rm); err != nil {
			t.Fatal(err)
		}
		g2, rm2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written edge list does not read back: %v", err)
		}
		if !slices.Equal(labelledEdges(g, rm), labelledEdges(g2, rm2)) {
			t.Fatalf("written edge list reads back as another labelled edge set")
		}
	})
}

// labelledEdges returns g's edges as sorted (smaller label, larger label)
// pairs, which identify an edge whatever dense ids a load assigned.
func labelledEdges(g *Graph, rm *Remapper) [][2]int64 {
	out := make([][2]int64, 0, g.NumEdges())
	for _, e := range g.Edges() {
		a, b := rm.Label(e.U), rm.Label(e.V)
		out = append(out, [2]int64{min(a, b), max(a, b)})
	}
	slices.SortFunc(out, func(x, y [2]int64) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return out
}

// FuzzOpenPacked asserts that the ESC1 loader never panics and that no
// file it accepts can fault a kernel walking the graph. The checksum is
// recomputed after mutation, so mutated payloads reach the structural sweep
// instead of being stopped by the CRC.
func FuzzOpenPacked(f *testing.F) {
	packed := func(g *Graph, rm *Remapper) []byte {
		var buf bytes.Buffer
		if err := WritePacked(&buf, g, rm, PackWriteOptions{}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	labelled, rm, err := ReadEdgeList(strings.NewReader(testEdgeListText(12, 30, 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(packed(MustFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}), nil))
	f.Add(packed(MustFromEdges(5, []Edge{{U: 0, V: 4}, {U: 1, V: 4}, {U: 2, V: 3}}), nil))
	f.Add(packed(labelled, rm))
	f.Add(packed(MustFromEdges(0, nil), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		if len(data) >= packHeaderSize {
			binary.LittleEndian.PutUint64(data[32:40], uint64(crc32.Checksum(data[packHeaderSize:], castagnoli)))
		}
		p, err := loadPacked(data, int64(len(data)))
		if err != nil {
			return
		}
		g, c := p.Graph(), p.Graph().CSR()
		edges := g.Edges()
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				_ = g.Degree(v)
			}
		}
		for s := range c.Targets {
			id, mate := c.EdgeID[s], c.Mate[s]
			_, _ = edges[id], c.Targets[mate]
			_ = g.Degree(c.Targets[s])
		}
		for u := 0; u < p.Remapper().Len(); u++ {
			_ = p.Remapper().Label(NodeID(u))
		}
	})
}
