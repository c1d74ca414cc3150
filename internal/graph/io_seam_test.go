package graph

import (
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"
)

// failCloseWriter accepts all writes and fails on Close — the shape of a
// full disk announcing itself at flush time.
type failCloseWriter struct{ closeErr error }

// Write implements io.Writer, discarding p.
func (w *failCloseWriter) Write(p []byte) (int, error) { return len(p), nil }

// Close implements io.Closer, returning the injected error.
func (w *failCloseWriter) Close() error { return w.closeErr }

// withFailingClose swaps the createFile seam for one returning
// failCloseWriter, restoring it when the test ends.
func withFailingClose(t *testing.T, closeErr error) {
	t.Helper()
	orig := createFile
	createFile = func(string) (io.WriteCloser, error) { return &failCloseWriter{closeErr: closeErr}, nil }
	t.Cleanup(func() { createFile = orig })
}

// TestSaveFileCloseErrorPropagates is the regression test for the shadowed
// err in SaveFile's .dot branch: a Close error was silently dropped because
// the deferred handler assigned to an inner err that shadowed the named
// return. Every file-writing path must surface it.
func TestSaveFileCloseErrorPropagates(t *testing.T) {
	closeErr := errors.New("close failed: disk full")
	withFailingClose(t, closeErr)
	g := MustFromEdges(3, []Edge{{0, 1}, {1, 2}})
	for _, name := range []string{"g.dot", "g.txt", "g.esc"} {
		if err := SaveFile(name, g, nil); !errors.Is(err, closeErr) {
			t.Errorf("SaveFile(%s) = %v, want the close error", name, err)
		}
	}
	if err := WriteEdgeListFile("g.txt", g, nil); !errors.Is(err, closeErr) {
		t.Errorf("WriteEdgeListFile = %v, want the close error", err)
	}
	if err := WritePackedFile("g.esc", g, nil, PackWriteOptions{}); !errors.Is(err, closeErr) {
		t.Errorf("WritePackedFile = %v, want the close error", err)
	}
}

// TestWriteFileWithWriteErrorWins pins the precedence: a write error is
// reported even when Close also fails.
func TestWriteFileWithWriteErrorWins(t *testing.T) {
	closeErr := errors.New("close failed")
	writeErr := errors.New("write failed")
	withFailingClose(t, closeErr)
	err := writeFileWith("x", func(io.Writer) error { return writeErr })
	if !errors.Is(err, writeErr) {
		t.Fatalf("writeFileWith = %v, want the write error", err)
	}
}

// shortWriter accepts the first limit bytes and fails every write that
// would pass them, writing what still fits — a disk filling up mid-write.
type shortWriter struct {
	limit, n int
	err      error
}

// Write implements io.Writer.
func (w *shortWriter) Write(p []byte) (int, error) {
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	k := w.limit - w.n
	w.n = w.limit
	return k, w.err
}

// Close implements io.Closer.
func (w *shortWriter) Close() error { return nil }

// TestWritePackedShortWrites cuts the packed write off after every byte
// count k from 0 to the file size: WritePacked, and SaveFile on an .esc
// path through the createFile seam, must return the writer's error for
// every k short of the size and succeed at the size.
func TestWritePackedShortWrites(t *testing.T) {
	errShort := errors.New("write failed: no space left on device")
	labelled, rm := loadTestGraph(t, testEdgeListText(8, 20, 3))
	orig := createFile
	t.Cleanup(func() { createFile = orig })
	for _, tc := range []struct {
		name string
		g    *Graph
		rm   *Remapper
	}{
		{"labelled", labelled, rm},
		{"identity", MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}}), nil},
	} {
		size := int(newPackLayout(tc.g.NumNodes(), tc.g.NumEdges(), identityLabels(tc.rm, tc.g.NumNodes())).total)
		for k := 0; k <= size; k++ {
			want := errShort
			if k == size {
				want = nil
			}
			err := WritePacked(&shortWriter{limit: k, err: errShort}, tc.g, tc.rm, PackWriteOptions{})
			if !errors.Is(err, want) {
				t.Fatalf("%s: WritePacked cut after %d of %d bytes = %v, want %v", tc.name, k, size, err, want)
			}
			createFile = func(string) (io.WriteCloser, error) { return &shortWriter{limit: k, err: errShort}, nil }
			if err := SaveFile("g.esc", tc.g, tc.rm); !errors.Is(err, want) {
				t.Fatalf("%s: SaveFile cut after %d of %d bytes = %v, want %v", tc.name, k, size, err, want)
			}
		}
	}
}

// TestWriteEdgeListShortWrites cuts the text write off after every byte
// count k from 0 to the output size: WriteEdgeList, and WriteEdgeListFile
// through the createFile seam, must return the writer's error for every k
// short of the size and succeed at the size.
func TestWriteEdgeListShortWrites(t *testing.T) {
	errShort := errors.New("write failed: no space left on device")
	orig := createFile
	t.Cleanup(func() { createFile = orig })
	for _, tc := range edgeListGoldenCases() {
		size := len(fmtEdgeList(tc.g, tc.rm))
		for k := 0; k <= size; k++ {
			want := errShort
			if k == size {
				want = nil
			}
			err := WriteEdgeList(&shortWriter{limit: k, err: errShort}, tc.g, tc.rm)
			if !errors.Is(err, want) {
				t.Fatalf("%s: WriteEdgeList cut after %d of %d bytes = %v, want %v", tc.name, k, size, err, want)
			}
			createFile = func(string) (io.WriteCloser, error) { return &shortWriter{limit: k, err: errShort}, nil }
			if err := WriteEdgeListFile("g.txt", tc.g, tc.rm); !errors.Is(err, want) {
				t.Fatalf("%s: WriteEdgeListFile cut after %d of %d bytes = %v, want %v", tc.name, k, size, err, want)
			}
		}
	}
}

func TestWriteFileWithRealFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeFileWith(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatalf("writeFileWith: %v", err)
	}
}

// TestCSRBounds pins the int32 slot-index guard shared by newGraph and the
// packed writers.
func TestCSRBounds(t *testing.T) {
	if err := csrBounds(10, 20); err != nil {
		t.Errorf("small counts rejected: %v", err)
	}
	if err := csrBounds(math.MaxInt32, math.MaxInt32/2); err != nil {
		t.Errorf("boundary counts rejected: %v", err)
	}
	if err := csrBounds(math.MaxInt32+1, 0); err == nil {
		t.Error("node count past int32 accepted")
	}
	if err := csrBounds(0, math.MaxInt32/2+1); err == nil {
		t.Error("edge count past int32/2 accepted")
	}
}

// TestIdentityRemapperLazy pins the O(1) identity mode: no table, labels on
// demand, transparent materialization when ID must assign something new.
func TestIdentityRemapperLazy(t *testing.T) {
	rm := IdentityRemapper(5)
	if rm.slots != nil || rm.labels != nil {
		t.Fatal("identity remapper materialized eagerly")
	}
	if rm.Len() != 5 {
		t.Errorf("Len = %d, want 5", rm.Len())
	}
	for u := NodeID(0); u < 5; u++ {
		if rm.Label(u) != int64(u) {
			t.Errorf("Label(%d) = %d", u, rm.Label(u))
		}
		if rm.ID(int64(u)) != u {
			t.Errorf("ID(%d) = %d", u, rm.ID(int64(u)))
		}
	}
	if rm.slots != nil {
		t.Fatal("in-range lookups materialized the table")
	}
	// An unseen label forces materialization and gets the next dense id.
	if id := rm.ID(99); id != 5 {
		t.Errorf("ID(99) = %d, want 5", id)
	}
	if rm.Len() != 6 || rm.Label(5) != 99 || rm.Label(2) != 2 {
		t.Errorf("post-materialize state wrong: Len=%d Label(5)=%d Label(2)=%d",
			rm.Len(), rm.Label(5), rm.Label(2))
	}
}

func TestIdentityRemapperLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Label outside the identity range did not panic")
		}
	}()
	IdentityRemapper(3).Label(3)
}

func TestRemapperFromLabelsLazy(t *testing.T) {
	rm := RemapperFromLabels([]int64{70, 50, 90})
	if rm.slots != nil {
		t.Fatal("label-mode remapper built the label table eagerly")
	}
	if rm.Len() != 3 || rm.Label(1) != 50 {
		t.Errorf("Len=%d Label(1)=%d", rm.Len(), rm.Label(1))
	}
	if rm.slots != nil {
		t.Fatal("Label materialized the table")
	}
	// ID needs the label table: existing labels resolve, new ones append.
	if id := rm.ID(90); id != 2 {
		t.Errorf("ID(90) = %d, want 2", id)
	}
	if id := rm.ID(33); id != 3 {
		t.Errorf("ID(33) = %d, want 3", id)
	}
	if rm.Len() != 4 || rm.Label(3) != 33 {
		t.Errorf("post-append state wrong: Len=%d Label(3)=%d", rm.Len(), rm.Label(3))
	}
}
