package msbfs

import (
	"math/bits"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
)

// bfsDist is the reference: one textbook queue BFS, -1 for unreachable.
func bfsDist(c *graph.CSR, s graph.NodeID) []int32 {
	dist := make([]int32, c.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []graph.NodeID{s}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range c.Targets[c.Offsets[v]:c.Offsets[v+1]] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// levelDists decodes the traversal's level storage into one distance array
// per batch bit, failing on any node/bit pair reported twice.
func levelDists(t *testing.T, tr *Traversal, nsrc, n int) [][]int32 {
	t.Helper()
	got := make([][]int32, nsrc)
	for s := range got {
		got[s] = make([]int32, n)
		for i := range got[s] {
			got[s][i] = -1
		}
	}
	for d := 0; d < tr.NumLevels(); d++ {
		nodes, words := tr.Level(d)
		for i, u := range nodes {
			w := words[i]
			if w == 0 {
				t.Fatalf("level %d entry %d (node %d) has empty word", d, i, u)
			}
			for w != 0 {
				s := bits.TrailingZeros64(w)
				w &= w - 1
				if s >= nsrc {
					t.Fatalf("level %d node %d carries bit %d beyond batch size %d", d, u, s, nsrc)
				}
				if got[s][u] >= 0 {
					t.Fatalf("bit %d reached node %d twice (levels %d and %d)", s, u, got[s][u], d)
				}
				got[s][u] = int32(d)
			}
		}
	}
	return got
}

func testGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"BA", gen.BarabasiAlbert(300, 3, 7)},
		{"ER", gen.ErdosRenyi(300, 800, 11)},
		{"WS", gen.WattsStrogatz(300, 6, 0.1, 13)},
		{"Path", gen.Path(200)},
		{"Star", gen.Star(64)},
		{"Disconnected", graph.MustFromEdges(40, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 5},
		})},
	}
}

// TestRunMatchesPerSourceBFS pins the engine's per-bit levels to a plain
// per-source BFS across generators, widths, ragged batches, and both
// ordering modes.
func TestRunMatchesPerSourceBFS(t *testing.T) {
	for _, tg := range testGraphs() {
		c := tg.g.CSR()
		n := c.NumNodes()
		nsrc := min(70, n)
		srcs := make([]graph.NodeID, nsrc)
		for i := range srcs {
			srcs[i] = graph.NodeID((i * 13) % n)
		}
		want := make([][]int32, nsrc)
		for i, s := range srcs {
			want[i] = bfsDist(c, s)
		}
		for _, width := range []int{1, 8, 64} {
			for _, canonical := range []bool{false, true} {
				tr := New(c, width, canonical)
				for lo := 0; lo < nsrc; lo += width {
					hi := min(lo+width, nsrc)
					batch := srcs[lo:hi]
					tr.Run(batch)
					got := levelDists(t, tr, len(batch), n)
					for s := range batch {
						for u := 0; u < n; u++ {
							if got[s][u] != want[lo+s][u] {
								t.Fatalf("%s width=%d canonical=%v source %d node %d: level %d, BFS dist %d",
									tg.name, width, canonical, batch[s], u, got[s][u], want[lo+s][u])
							}
							w := tr.Visited(graph.NodeID(u))
							if reached := w>>uint(s)&1 == 1; reached != (want[lo+s][u] >= 0) {
								t.Fatalf("%s width=%d source %d node %d: Visited bit %v, reachable %v",
									tg.name, width, batch[s], u, reached, want[lo+s][u] >= 0)
							}
						}
					}
				}
			}
		}
	}
}

// TestCanonicalLevelsAscend pins the canonical contract: every level's node
// list strictly ascends, and the (node, word) multiset matches the
// unsorted mode exactly.
func TestCanonicalLevelsAscend(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 3)
	c := g.CSR()
	srcs := make([]graph.NodeID, 64)
	for i := range srcs {
		srcs[i] = graph.NodeID(i * 5)
	}
	sorted := New(c, 64, true)
	plain := New(c, 64, false)
	sorted.Run(srcs)
	plain.Run(srcs)
	if sorted.NumLevels() != plain.NumLevels() {
		t.Fatalf("canonical %d levels, plain %d", sorted.NumLevels(), plain.NumLevels())
	}
	for d := 0; d < sorted.NumLevels(); d++ {
		nodes, words := sorted.Level(d)
		for i := 1; i < len(nodes); i++ {
			if nodes[i-1] >= nodes[i] {
				t.Fatalf("level %d not strictly ascending at %d: %d >= %d", d, i, nodes[i-1], nodes[i])
			}
		}
		pn, pw := plain.Level(d)
		if len(pn) != len(nodes) {
			t.Fatalf("level %d: canonical %d entries, plain %d", d, len(nodes), len(pn))
		}
		byNode := make(map[graph.NodeID]uint64, len(pn))
		for i, u := range pn {
			byNode[u] = pw[i]
		}
		for i, u := range nodes {
			if byNode[u] != words[i] {
				t.Fatalf("level %d node %d: canonical word %x, plain %x", d, u, words[i], byNode[u])
			}
		}
	}
}

// TestDuplicateSourcesShareAWord covers the documented duplicate-source
// case: both bits travel together through every level.
func TestDuplicateSourcesShareAWord(t *testing.T) {
	g := gen.Cycle(10)
	tr := New(g.CSR(), 8, true)
	tr.Run([]graph.NodeID{3, 3, 7})
	got := levelDists(t, tr, 3, 10)
	want0 := bfsDist(g.CSR(), 3)
	want2 := bfsDist(g.CSR(), 7)
	for u := 0; u < 10; u++ {
		if got[0][u] != want0[u] || got[1][u] != want0[u] {
			t.Fatalf("node %d: duplicate bits at levels %d/%d, want %d", u, got[0][u], got[1][u], want0[u])
		}
		if got[2][u] != want2[u] {
			t.Fatalf("node %d: bit 2 at level %d, want %d", u, got[2][u], want2[u])
		}
	}
}

// TestIsolatedSourceSingleLevel: a source with no edges yields exactly the
// level-0 self entry and a clean traversal end.
func TestIsolatedSourceSingleLevel(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 1, V: 2}})
	tr := New(g.CSR(), 4, false)
	tr.Run([]graph.NodeID{0})
	if tr.NumLevels() != 1 {
		t.Fatalf("isolated source: %d levels, want 1", tr.NumLevels())
	}
	nodes, words := tr.Level(0)
	if len(nodes) != 1 || nodes[0] != 0 || words[0] != 1 {
		t.Fatalf("level 0 = %v/%v, want [0]/[1]", nodes, words)
	}
}

// TestStatsAccumulate: the tallies move, levels split exactly between the
// two directions, and batches count Run calls.
func TestStatsAccumulate(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 9)
	tr := New(g.CSR(), 64, false)
	srcs := make([]graph.NodeID, 64)
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}
	var levels int64
	for r := 0; r < 3; r++ {
		tr.Run(srcs)
		levels += int64(tr.NumLevels())
	}
	st := tr.Stats()
	if st.Batches != 3 {
		t.Errorf("Batches = %d, want 3", st.Batches)
	}
	// Every level 0..NumLevels-1 serves once as a frontier, expanded in
	// exactly one direction.
	if st.TopDownLevels+st.BottomUpLevels != levels {
		t.Errorf("TopDown %d + BottomUp %d != %d frontier expansions",
			st.TopDownLevels, st.BottomUpLevels, levels)
	}
	if st.WordsScanned == 0 {
		t.Error("WordsScanned stayed 0 over a dense traversal")
	}
	// A 64-wide batch on a low-diameter BA graph must trigger bottom-up.
	if st.BottomUpLevels == 0 || st.Switches == 0 {
		t.Errorf("no direction optimization observed: %+v", st)
	}
}

// TestRunSteadyStateAllocs pins the zero-alloc steady state: after warmup
// on a fixed graph, Run allocates nothing, so per-batch cost is pure
// traversal (and the disabled-obs path of consumers adds nothing on top).
func TestRunSteadyStateAllocs(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 1)
	c := g.CSR()
	for _, canonical := range []bool{false, true} {
		tr := New(c, 64, canonical)
		srcs := make([]graph.NodeID, 64)
		for i := range srcs {
			srcs[i] = graph.NodeID((i * 31) % 2000)
		}
		for i := 0; i < 3; i++ {
			tr.Run(srcs)
		}
		if allocs := testing.AllocsPerRun(10, func() { tr.Run(srcs) }); allocs != 0 {
			t.Errorf("canonical=%v: %v allocs per steady-state Run, want 0", canonical, allocs)
		}
	}
}

// TestWidthClamp pins the Width resolution rules.
func TestWidthClamp(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 64}, {-3, 64}, {65, 64}, {1000, 64}, {1, 1}, {8, 8}, {64, 64},
	}
	for _, c := range cases {
		if got := Width(c.in); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRunRejectsBadBatches: empty and over-wide batches panic loudly
// instead of silently mis-masking.
func TestRunRejectsBadBatches(t *testing.T) {
	tr := New(gen.Path(4).CSR(), 2, false)
	for _, srcs := range [][]graph.NodeID{nil, {0, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%v) with width 2 did not panic", srcs)
				}
			}()
			tr.Run(srcs)
		}()
	}
}

// TestMeterDirSwitchEvents pins the Meter's flight path: a metered run emits
// exactly one dir_switch event per Stats().Switches, each encoding the level
// about to be expanded and the new direction as level<<1|bottomUp, the
// engine counters equal Stats, and the metered traversal is bit-identical
// to an unmetered one.
func TestMeterDirSwitchEvents(t *testing.T) {
	g := gen.BarabasiAlbert(500, 4, 9)
	c := g.CSR()
	srcs := make([]graph.NodeID, 64)
	for i := range srcs {
		srcs[i] = graph.NodeID(i)
	}

	plain := New(c, 64, false)
	plain.Run(srcs)
	want := levelDists(t, plain, len(srcs), c.NumNodes())

	rec := obs.New("test")
	tr := New(c, 64, false)
	wm := NewMeter(rec.Root(), "probe").Worker(3, tr)
	tr.Run(srcs)
	wm.Batch(len(srcs))
	wm.End()

	var levels []int64
	var bottomUp []bool
	for _, e := range rec.Flight().Events() {
		if e.Kind != "dir_switch" || e.Name != "probe" {
			continue
		}
		if e.Slot != 3 {
			t.Errorf("dir_switch on slot %d, want 3", e.Slot)
		}
		levels = append(levels, e.Arg>>1)
		bottomUp = append(bottomUp, e.Arg&1 == 1)
	}
	st := tr.Stats()
	if int64(len(levels)) != st.Switches {
		t.Fatalf("%d dir_switch events, Stats().Switches = %d", len(levels), st.Switches)
	}
	if len(levels) == 0 {
		t.Fatal("no switches on a dense 64-wide BA batch; the test exercises nothing")
	}
	// Directions alternate (each switch flips the mode) and the first one on
	// a fresh batch is into bottom-up.
	if !bottomUp[0] {
		t.Errorf("first switch direction = top-down, want bottom-up")
	}
	for i := 1; i < len(levels); i++ {
		if bottomUp[i] == bottomUp[i-1] {
			t.Errorf("switch %d repeats direction %v", i, bottomUp[i])
		}
		if levels[i] <= levels[i-1] {
			t.Errorf("switch levels not increasing: %d then %d", levels[i-1], levels[i])
		}
	}
	for _, l := range levels {
		if l <= 0 || l >= int64(tr.NumLevels()) {
			t.Errorf("switch at level %d outside (0, %d)", l, tr.NumLevels())
		}
	}

	vals := rec.CounterValues()
	for name, v := range map[string]int64{
		"msbfs.batches_done":       st.Batches,
		"msbfs.words_scanned":      st.WordsScanned,
		"msbfs.direction_switches": st.Switches,
		"msbfs.topdown_levels":     st.TopDownLevels,
		"msbfs.bottomup_levels":    st.BottomUpLevels,
	} {
		if vals[name] != v {
			t.Errorf("counter %s = %d, Stats say %d", name, vals[name], v)
		}
	}
	hists := rec.HistogramValues()
	if h := hists["msbfs.level_width"]; h == nil || h.Count != int64(tr.NumLevels()) {
		t.Errorf("level_width histogram = %+v, want one observation per level (%d)", h, tr.NumLevels())
	}
	if h := hists["msbfs.batch_occupancy"]; h == nil || h.Count != 1 || h.Sum != int64(len(srcs)) {
		t.Errorf("batch_occupancy histogram = %+v, want one batch of %d", h, len(srcs))
	}

	got := levelDists(t, tr, len(srcs), c.NumNodes())
	for s := range got {
		for u := range got[s] {
			if got[s][u] != want[s][u] {
				t.Fatalf("metered run diverged at source %d node %d: %d vs %d", s, u, got[s][u], want[s][u])
			}
		}
	}
}

// TestMeterDisabledAllocatesNothing pins the disabled path: a nil span
// yields a nil Meter whose WorkerMeters add no allocation to a steady-state
// Run.
func TestMeterDisabledAllocatesNothing(t *testing.T) {
	m := NewMeter(nil, "probe")
	if m != nil {
		t.Fatal("NewMeter(nil) != nil")
	}
	g := gen.BarabasiAlbert(2000, 4, 1)
	tr := New(g.CSR(), 64, false)
	srcs := make([]graph.NodeID, 64)
	for i := range srcs {
		srcs[i] = graph.NodeID((i * 31) % 2000)
	}
	for i := 0; i < 3; i++ {
		tr.Run(srcs)
	}
	allocs := testing.AllocsPerRun(10, func() {
		wm := m.Worker(0, tr)
		tr.Run(srcs)
		wm.Batch(len(srcs))
		wm.End()
	})
	if allocs != 0 {
		t.Errorf("%v allocs per disabled metered Run, want 0", allocs)
	}
}
