package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// seedReadEdgeList is the seed-era loader, kept verbatim as the oracle: the
// rewritten parallel loader must be bit-identical to it on every input —
// graph, remapper and error messages alike.
func seedReadEdgeList(r io.Reader) (*Graph, *Remapper, error) {
	rm := NewRemapper()
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: expected two fields, got %q", lineNo, line)
		}
		x, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, fields[0], err)
		}
		y, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineNo, fields[1], err)
		}
		u, v := rm.ID(x), rm.ID(y)
		b.Grow(rm.Len())
		b.TryAddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Graph(), rm, nil
}

// requireSameLoad asserts the new loader and the oracle agree exactly on
// input, at the given worker count.
func requireSameLoad(t *testing.T, input string, workers int) {
	t.Helper()
	wantG, wantRM, wantErr := seedReadEdgeList(strings.NewReader(input))
	gotG, gotRM, gotErr := ReadEdgeListOpts(strings.NewReader(input), EdgeListOptions{Workers: workers})
	requireEqualLoads(t, "new loader against the oracle", wantG, wantRM, wantErr, gotG, gotRM, gotErr)
	if gotErr == nil {
		if err := gotG.Validate(); err != nil {
			t.Fatalf("new loader's graph invalid: %v", err)
		}
	}
}

// requireEqualLoads asserts that two loads of one input agree exactly:
// the same error text, or the same graph and the same labels.
func requireEqualLoads(t *testing.T, what string, wantG *Graph, wantRM *Remapper, wantErr error, gotG *Graph, gotRM *Remapper, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: want %v, got %v", what, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\nwant: %s\ngot:  %s", what, wantErr, gotErr)
		}
		return
	}
	if gotG.NumNodes() != wantG.NumNodes() || gotG.NumEdges() != wantG.NumEdges() {
		t.Fatalf("%s: shape mismatch: got |V|=%d |E|=%d, want |V|=%d |E|=%d", what,
			gotG.NumNodes(), gotG.NumEdges(), wantG.NumNodes(), wantG.NumEdges())
	}
	wantEdges, gotEdges := wantG.Edges(), gotG.Edges()
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("%s: edge %d mismatch: got %v, want %v", what, i, gotEdges[i], wantEdges[i])
		}
	}
	if gotRM.Len() != wantRM.Len() {
		t.Fatalf("%s: remapper size mismatch: got %d, want %d", what, gotRM.Len(), wantRM.Len())
	}
	for u := 0; u < wantRM.Len(); u++ {
		if gotRM.Label(NodeID(u)) != wantRM.Label(NodeID(u)) {
			t.Fatalf("%s: label of id %d: got %d, want %d", what, u, gotRM.Label(NodeID(u)), wantRM.Label(NodeID(u)))
		}
	}
}

func TestSnapLoaderOracleHandwritten(t *testing.T) {
	inputs := []string{
		"",
		"\n\n\n",
		"# only a comment\n",
		sampleEdgeList,
		"1 2\n2 3\n3 1\n",
		"1 2",                   // no trailing newline
		"1\t2\r\n2\t3\r\n",      // tabs and CRLF
		"  5   6  \n\t7\t8\t\n", // padded fields
		"1 2 99 extra fields ignored\n2 3\n",
		"9999999999 -123\n-123 0\n0 9999999999\n", // 64-bit and negative labels
		"5 5\n5 6\n6 5\n",                         // self-loop + reversed duplicate
		"# c\n\n1 2\n# c\n2 1\n\n",
	}
	for i, in := range inputs {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("input%d/workers%d", i, workers), func(t *testing.T) {
				requireSameLoad(t, in, workers)
			})
		}
	}
}

func TestSnapLoaderOracleErrors(t *testing.T) {
	inputs := []string{
		"1 2\n3\n4 5\n",                 // too few fields, line 2
		"1 2\n\n# c\nx 5\n",             // bad first id after skipped lines, line 4
		"1 2\n3 y\n",                    // bad second id
		"1 2\n3 99999999999999999999\n", // out-of-range int64
		"1 2\n4 5.5\n",                  // float id
		"   \nonefield   \n",            // whitespace-padded single field
	}
	for i, in := range inputs {
		t.Run(fmt.Sprintf("input%d", i), func(t *testing.T) {
			requireSameLoad(t, in, 2)
		})
	}
}

// TestSnapLoaderOracleRandomLarge pushes a multi-chunk input (bigger than
// ingestChunkSize) through both loaders: chunk-boundary handling, the
// parallel group path and first-seen remap determinism all get exercised.
func TestSnapLoaderOracleRandomLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB input in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	for sb.Len() < ingestChunkSize+ingestChunkSize/2 {
		switch rng.Intn(10) {
		case 0:
			sb.WriteString("# comment line\n")
		case 1:
			sb.WriteString("\n")
		default:
			// Labels from a small pool force duplicates and self-loops.
			fmt.Fprintf(&sb, "%d %d\n", rng.Int63n(50000)-1000, rng.Int63n(50000)-1000)
		}
	}
	in := sb.String()
	requireSameLoad(t, in, 4)

	// Worker count must not change the result.
	g1, rm1, err := ReadEdgeListOpts(strings.NewReader(in), EdgeListOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g8, rm8, err := ReadEdgeListOpts(strings.NewReader(in), EdgeListOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != g8.NumNodes() || g1.NumEdges() != g8.NumEdges() || rm1.Len() != rm8.Len() {
		t.Fatalf("worker count changed the load: w1 |V|=%d |E|=%d, w8 |V|=%d |E|=%d",
			g1.NumNodes(), g1.NumEdges(), g8.NumNodes(), g8.NumEdges())
	}
	e1, e8 := g1.Edges(), g8.Edges()
	for i := range e1 {
		if e1[i] != e8[i] {
			t.Fatalf("edge %d differs across worker counts", i)
		}
	}
}

// TestParseInt64MatchesStrconv pins the manual parser to
// strconv.ParseInt(s, 10, 64) on every edge case that matters.
func TestParseInt64MatchesStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+7", "007", "123456789",
		"9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809",
		"18446744073709551616", "99999999999999999999999",
		"", "-", "+", "+-1", "--1", "1a", "a1", "1.5", " 1", "1 ",
	}
	for _, s := range cases {
		want, werr := strconv.ParseInt(s, 10, 64)
		got, ok := parseInt64([]byte(s))
		if ok != (werr == nil) {
			t.Errorf("parseInt64(%q) ok=%v, strconv err=%v", s, ok, werr)
			continue
		}
		if ok && got != want {
			t.Errorf("parseInt64(%q) = %d, strconv = %d", s, got, want)
		}
	}
}

// TestScanEdgeListEmitError pins that an emit error (a full spill disk, in
// the external-sort packer) aborts the scan immediately.
func TestScanEdgeListEmitError(t *testing.T) {
	wantErr := fmt.Errorf("spill failed")
	_, err := scanEdgeList(strings.NewReader("1 2\n3 4\n"), EdgeListOptions{}, ingestChunkSize, func(uint64) error {
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("scanEdgeList error = %v, want %v", err, wantErr)
	}
}
