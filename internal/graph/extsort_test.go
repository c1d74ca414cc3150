package graph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestExternalSortPackMatchesInRAM is the format's strongest guarantee: the
// bounded-memory external-sort pack must produce a byte-identical file to
// the in-RAM pack, with the memory budget squeezed hard enough to force
// many spill runs.
func TestExternalSortPackMatchesInRAM(t *testing.T) {
	text := testEdgeListText(400, 5000, 21)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	// In-RAM reference.
	g, rm := loadTestGraph(t, text)
	ramPath := filepath.Join(dir, "ram.esc")
	if err := WritePackedFile(ramPath, g, rm, PackWriteOptions{}); err != nil {
		t.Fatalf("WritePackedFile: %v", err)
	}

	// External-sort with a budget of 512 keys per run — far below the
	// distinct edge count — so the spill/merge machinery genuinely runs.
	extPath := filepath.Join(dir, "ext.esc")
	stats, err := PackEdgeListFile(inPath, extPath, PackOptions{
		MemBudget: 512 * 8,
		TmpDir:    dir,
	})
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.SpillChunks < 2 {
		t.Fatalf("budget did not force multiple spill runs: %d chunks for %d edges", stats.SpillChunks, stats.Edges)
	}
	if stats.Nodes != g.NumNodes() || stats.Edges != g.NumEdges() {
		t.Fatalf("stats |V|=%d |E|=%d, want |V|=%d |E|=%d", stats.Nodes, stats.Edges, g.NumNodes(), g.NumEdges())
	}
	// The budget must be far below what the in-RAM edge set costs.
	if keyBytes := int64(g.NumEdges()) * 8; stats.SpillChunks > 0 && 512*8 >= keyBytes {
		t.Fatalf("test misconfigured: budget %d not below key-set size %d", 512*8, keyBytes)
	}

	ramBytes, err := os.ReadFile(ramPath)
	if err != nil {
		t.Fatal(err)
	}
	extBytes, err := os.ReadFile(extPath)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesOut != int64(len(extBytes)) {
		t.Errorf("stats.BytesOut = %d, file is %d", stats.BytesOut, len(extBytes))
	}
	if len(ramBytes) != len(extBytes) {
		t.Fatalf("file sizes differ: ram %d, ext %d", len(ramBytes), len(extBytes))
	}
	for i := range ramBytes {
		if ramBytes[i] != extBytes[i] {
			t.Fatalf("files differ at byte %d: ram %#x, ext %#x", i, ramBytes[i], extBytes[i])
		}
	}

	// And the file must open and validate like any other pack.
	p, err := OpenPacked(extPath)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer p.Close()
	requireSameGraph(t, p.Graph(), g, p.Remapper(), rm)
}

func TestExternalSortPackNoSpill(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte("7 9\n9 11\n7 9\n11 11\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "g.esc")
	stats, err := PackEdgeListFile(inPath, outPath, PackOptions{})
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.SpillChunks != 0 || stats.SpilledKeys != 0 {
		t.Errorf("tiny input spilled: %d chunks, %d keys", stats.SpillChunks, stats.SpilledKeys)
	}
	if stats.Nodes != 3 || stats.Edges != 2 {
		t.Errorf("stats |V|=%d |E|=%d, want 3 and 2", stats.Nodes, stats.Edges)
	}
	g, rm, err := LoadFile(outPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g.NumEdges() != 2 || rm.Label(0) != 7 || rm.Label(2) != 11 {
		t.Errorf("loaded graph wrong: |E|=%d labels=%d,%d", g.NumEdges(), rm.Label(0), rm.Label(2))
	}
}

func TestExternalSortPackEmptyInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(inPath, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "empty.esc")
	stats, err := PackEdgeListFile(inPath, outPath, PackOptions{})
	if err != nil {
		t.Fatalf("PackEdgeListFile: %v", err)
	}
	if stats.Nodes != 0 || stats.Edges != 0 {
		t.Errorf("empty input produced |V|=%d |E|=%d", stats.Nodes, stats.Edges)
	}
	g, _, err := LoadFile(outPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Errorf("loaded empty graph has |V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestExternalSortPackBadInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(inPath, []byte("1 2\nnot numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := PackEdgeListFile(inPath, filepath.Join(dir, "bad.esc"), PackOptions{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("parse error not propagated with its line: %v", err)
	}
	if _, err := PackEdgeListFile(filepath.Join(dir, "missing.txt"), filepath.Join(dir, "x.esc"), PackOptions{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

// requireSameFile fails unless the files at got and want hold the same
// bytes.
func requireSameFile(t *testing.T, what, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: %s (%d bytes) differs from %s (%d bytes)", what, got, len(g), want, len(w))
	}
}

// TestExternalSortPackAnyWorkers packs a graph large enough for the
// parallel sort and fill (past serialBelow edges) at one to three workers,
// in memory and spilling: every file must equal the in-RAM pack's bytes.
func TestExternalSortPackAnyWorkers(t *testing.T) {
	text := testEdgeListText(8000, 3*serialBelow/2, 7)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g, rm := loadTestGraph(t, text)
	if g.NumEdges() < serialBelow {
		t.Fatalf("test misconfigured: %d edges, below serialBelow", g.NumEdges())
	}
	ramPath := filepath.Join(dir, "ram.esc")
	if err := WritePackedFile(ramPath, g, rm, PackWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 64 << 10} {
		for _, workers := range []int{1, 2, 3} {
			out := filepath.Join(dir, "ext.esc")
			stats, err := PackEdgeListFile(inPath, out, PackOptions{MemBudget: budget, TmpDir: dir, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if (stats.SpillChunks > 0) != (budget > 0) {
				t.Fatalf("budget %d: %d spill runs", budget, stats.SpillChunks)
			}
			requireSameFile(t, fmt.Sprintf("budget %d, %d workers", budget, workers), out, ramPath)
		}
	}
}

// TestExternalSortPackOneByteBudget pins the budget's floor: a 1-byte
// budget holds minKeyBuffer keys per run, so a few thousand edges spill
// hundreds of runs, and the merged file must still equal the in-RAM
// pack's bytes.
func TestExternalSortPackOneByteBudget(t *testing.T) {
	text := testEdgeListText(400, 5000, 21)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g, rm := loadTestGraph(t, text)
	ramPath := filepath.Join(dir, "ram.esc")
	if err := WritePackedFile(ramPath, g, rm, PackWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	extPath := filepath.Join(dir, "ext.esc")
	stats, err := PackEdgeListFile(inPath, extPath, PackOptions{MemBudget: 1, TmpDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpillChunks < 200 {
		t.Fatalf("a 1-byte budget spilled only %d runs for %d edges", stats.SpillChunks, stats.Edges)
	}
	requireSameFile(t, "1-byte budget", extPath, ramPath)
}

// TestKeyBufferWithinBudget pins that the packer's key buffer grows toward
// its budget and never past it: keys and sort scratch together stay within
// the budget (or the minKeyBuffer floor) through filling, sorting and
// reuse, and every run comes out sorted and duplicate-free.
func TestKeyBufferWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, budget := range []int64{1, 100, 256, 4096, 1 << 16, 1 << 20, defaultMemBudget} {
		kb := newKeyBuffer(budget)
		limit := max(budget, 16*minKeyBuffer)
		held := func() int64 { return 8 * int64(cap(kb.keys)+cap(kb.scratch)) }
		check := func(when string) {
			if held() > limit {
				t.Fatalf("budget %d: %s, keys and scratch hold %d bytes", budget, when, held())
			}
		}
		checkRun := func(run []uint64) {
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					t.Fatalf("budget %d: run not strictly ascending at %d", budget, i)
				}
			}
		}
		runs := 0
		for i := 0; i < 100000; i++ {
			full := kb.add(packKey(NodeID(rng.Intn(3000)), NodeID(rng.Intn(3000))))
			check("after an add")
			if full {
				checkRun(kb.sorted(2))
				check("after a sort")
				kb.reset()
				runs++
			}
		}
		checkRun(kb.sorted(2))
		check("after the last sort")
		if held() < min(limit, 100000*8)/2 {
			t.Fatalf("budget %d: buffer grew to only %d bytes", budget, held())
		}
		if wantRuns := int(100000 / max(budget/16, minKeyBuffer)); runs != wantRuns {
			t.Fatalf("budget %d: %d full runs, want %d", budget, runs, wantRuns)
		}
	}
}

// failingRun wraps a real spill file and fails its writes, or its close,
// with err: a disk filling up during a spill.
type failingRun struct {
	f         *os.File
	failWrite bool
	err       error
}

// Write implements io.Writer.
func (w *failingRun) Write(p []byte) (int, error) {
	if w.failWrite {
		return 0, w.err
	}
	return w.f.Write(p)
}

// Close implements io.Closer, closing the file before failing.
func (w *failingRun) Close() error {
	if err := w.f.Close(); err != nil || w.failWrite {
		return err
	}
	return w.err
}

// TestExternalSortPackSpillFailure injects ENOSPC into the third spill run
// through the createFile seam, once at write and once at close: the packer
// must return that error, create no output, and leave nothing in its
// temp dir.
func TestExternalSortPackSpillFailure(t *testing.T) {
	text := testEdgeListText(400, 5000, 21)
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	orig := createFile
	t.Cleanup(func() { createFile = orig })
	for _, failWrite := range []bool{true, false} {
		tmp := filepath.Join(dir, fmt.Sprintf("tmp-%v", failWrite))
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		runs := 0
		createFile = func(path string) (io.WriteCloser, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if runs++; runs < 3 {
				return f, nil
			}
			return &failingRun{f: f, failWrite: failWrite, err: syscall.ENOSPC}, nil
		}
		outPath := filepath.Join(dir, "out.esc")
		_, err := PackEdgeListFile(inPath, outPath, PackOptions{MemBudget: 512 * 16, TmpDir: tmp})
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("failWrite=%v: PackEdgeListFile = %v, want ENOSPC", failWrite, err)
		}
		if runs != 3 {
			t.Fatalf("failWrite=%v: %d spill runs created, want the failing third to be the last", failWrite, runs)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Fatalf("failWrite=%v: temp dir holds %v (%v) after the failed pack", failWrite, left, err)
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Fatalf("failWrite=%v: output exists after the failed pack: %v", failWrite, err)
		}
	}
}
