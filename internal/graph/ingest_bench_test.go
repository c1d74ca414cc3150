package graph

import (
	"os"
	"path/filepath"
	"testing"
)

// The ingest benchmark pair: parsing the text edge
// list from scratch versus mmap-loading the packed-CSR file. Same graph,
// same resulting in-memory view — the packed load skips all per-edge work,
// paying only the checksum and validation sweeps.

// benchIngestFixture writes the benchmark graph as both text and packed
// files under dir, returning the two paths.
func benchIngestFixture(b *testing.B, dir string) (txtPath, escPath string) {
	b.Helper()
	txtPath = filepath.Join(dir, "g.txt")
	escPath = filepath.Join(dir, "g.esc")
	text := testEdgeListText(20000, 200000, 17)
	if err := os.WriteFile(txtPath, []byte(text), 0o644); err != nil {
		b.Fatal(err)
	}
	g, rm, err := ReadEdgeListFile(txtPath)
	if err != nil {
		b.Fatal(err)
	}
	if err := WritePackedFile(escPath, g, rm, PackWriteOptions{}); err != nil {
		b.Fatal(err)
	}
	return txtPath, escPath
}

func BenchmarkIngestTextLoad(b *testing.B) {
	txtPath, _ := benchIngestFixture(b, b.TempDir())
	fi, err := os.Stat(txtPath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := ReadEdgeListFile(txtPath)
		if err != nil {
			b.Fatal(err)
		}
		_ = g.NumEdges()
	}
}

func BenchmarkIngestPackedLoad(b *testing.B) {
	_, escPath := benchIngestFixture(b, b.TempDir())
	fi, err := os.Stat(escPath)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := OpenPacked(escPath)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Graph().NumEdges()
		if err := p.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestExtsortPack tracks the out-of-core packer end to end with
// a budget that forces spilling.
func BenchmarkIngestExtsortPack(b *testing.B) {
	dir := b.TempDir()
	txtPath, _ := benchIngestFixture(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(dir, "bench.esc")
		if _, err := PackEdgeListFile(txtPath, out, PackOptions{MemBudget: 1 << 16, TmpDir: dir}); err != nil {
			b.Fatal(err)
		}
	}
}
