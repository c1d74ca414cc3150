package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// Packed files as the kernels meet them: opened from disk by
// graph.OpenPacked, which proves the checksum, the bounds of every index and
// the canonical edge list, but not that the adjacency and the edge list
// agree. Whatever it accepts, the reducers and the betweenness kernel must
// return on without panicking.

// packedBytes is g in the ESC1 format with identity labels.
func packedBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WritePacked(&buf, g, nil, graph.PackWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeResummed writes data to a fresh .esc file after recomputing the
// header's payload checksum (CRC-32C of everything past the 64-byte header,
// stored at bytes [32:40)), so a mutated payload reaches OpenPacked's
// structural checks instead of failing the checksum.
func writeResummed(t testing.TB, dir string, data []byte) string {
	t.Helper()
	const header = 64
	if len(data) >= header {
		sum := crc32.Checksum(data[header:], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint64(data[32:40], uint64(sum))
	}
	path := filepath.Join(dir, "g.esc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// disagreeingPacked is a well-summed, index-clean file whose adjacency
// disagrees with its edge list: the graph has edges (0,1), (0,4), (1,4),
// (2,3), and node 1's second target is rewritten from 4 to 3. Node 1's
// targets [0, 3] still ascend and stay in range, so the file opens.
func disagreeingPacked(t testing.TB) []byte {
	t.Helper()
	const n = 5
	g := graph.MustFromEdges(n, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 4}, {U: 1, V: 4}, {U: 2, V: 3}})
	data := packedBytes(t, g)
	// Identity labels: Offsets follow the header, Targets follow Offsets.
	offsets, targets := 64, 64+4*(n+1)
	slot := int(binary.LittleEndian.Uint32(data[offsets+4*1:])) + 1 // node 1's second slot
	at := targets + 4*slot
	if got := binary.LittleEndian.Uint32(data[at:]); got != 4 {
		t.Fatalf("node 1's second target is %d, want 4", got)
	}
	binary.LittleEndian.PutUint32(data[at:], 3)
	return data
}

// runKernels runs exact and 4-sample CRR and BM2 at p = 0.5, and edge
// betweenness, all at two workers, on g. Errors are fine; panics are not.
func runKernels(g *graph.Graph) {
	bw := centrality.Options{Workers: 2}
	for _, r := range []Reducer{
		CRR{Seed: 1, Betweenness: bw},
		CRR{Seed: 1, Betweenness: centrality.Options{Samples: 4, Seed: 2, Workers: 2}},
		BM2{},
	} {
		_, _ = r.Reduce(g, 0.5)
	}
	_ = centrality.EdgeBetweennessScores(g, bw)
}

// TestPackedAdjacencyDisagreeingWithEdges pins what loading does not
// prove: a file whose adjacency disagrees with its edge list opens, only
// Validate (PackedGraph.Verify, gpack -verify) rejects it, and every
// reducer and the betweenness kernel still return on it.
func TestPackedAdjacencyDisagreeingWithEdges(t *testing.T) {
	p, err := graph.OpenPacked(writeResummed(t, t.TempDir(), disagreeingPacked(t)))
	if err != nil {
		t.Fatalf("index-clean file rejected at open: %v", err)
	}
	defer p.Close()
	g := p.Graph()
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted an adjacency that disagrees with the edge list")
	}
	if err := p.Verify(); err == nil {
		t.Fatal("Verify accepted an adjacency that disagrees with the edge list")
	}
	runKernels(g)
	for _, r := range []Reducer{
		CRR{Seed: 1, Importance: ImportanceDegreeProduct},
		BM2{},
		Random{Seed: 1},
		WeightedSample{Seed: 1},
		ForestFire{Seed: 1},
		SpanningForest{Seed: 1},
	} {
		for _, ratio := range []float64{0.3, 0.9} {
			_, _ = r.Reduce(g, ratio)
		}
	}
}

// FuzzPackedKernels feeds arbitrary bytes, checksum recomputed, through
// OpenPacked, and runs exact and sampled CRR, BM2 and edge betweenness at
// two workers on every file it accepts with at most 200 nodes. None may
// panic.
func FuzzPackedKernels(f *testing.F) {
	f.Add(packedBytes(f, graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})))
	f.Add(packedBytes(f, gen.BarabasiAlbert(12, 2, 1)))
	f.Add(packedBytes(f, graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}})))
	f.Add(packedBytes(f, graph.MustFromEdges(0, nil)))
	f.Add(disagreeingPacked(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := graph.OpenPacked(writeResummed(t, t.TempDir(), append([]byte(nil), data...)))
		if err != nil {
			return
		}
		defer p.Close()
		if p.Graph().NumNodes() > 200 {
			return
		}
		runKernels(p.Graph())
	})
}
