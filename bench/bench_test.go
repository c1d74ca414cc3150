package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4), the spread computation the benchmark's
	// acceptance uses.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{0.5, 4, 2.25, 9, 1}, 2.25, 0.75, 6.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("input reordered to %v", c.xs)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// span builds a synthetic span node; times are in seconds for readability.
func span(name string, start, dur float64, kids ...*obs.SpanNode) *obs.SpanNode {
	return &obs.SpanNode{Name: name, StartNs: int64(start * 1e9), DurNs: int64(dur * 1e9), Children: kids}
}

func TestSpanTimesSubtractChildCoverage(t *testing.T) {
	rep := span("rep", 0, 100,
		span("open", 0, 10, span("map", 2, 6)),
		span("reduce", 10, 80,
			span("crr.reduce", 10, 80,
				span("crr.phase1.rank", 10, 50, span("betweenness", 12, 46)),
				span("crr.phase2.rewire", 60, 25))),
		span("write", 90, 9),
	)
	self, total := spanTimes(rep)
	wantSelf := map[string]float64{
		"rep": 1, "open": 4, "map": 6, "reduce": 0, "crr.reduce": 5,
		"crr.phase1.rank": 4, "betweenness": 46, "crr.phase2.rewire": 25, "write": 9,
	}
	for name, want := range wantSelf {
		if got := self[name]; got != want {
			t.Errorf("self[%s] = %v, want %v", name, got, want)
		}
	}
	if total["crr.reduce"] != 80 || total["betweenness"] != 46 {
		t.Errorf("totals = %v", total)
	}
	var sum float64
	for _, s := range self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}

	// Overlapping children (a parallel sweep) count their union once, and a
	// child running past its parent's end counts only inside it.
	sweep := span("crr.sweep", 0, 100,
		span("crr.reduce", 10, 40), span("crr.reduce", 30, 40), span("late", 90, 30))
	if self, _ := spanTimes(sweep); self["crr.sweep"] != 30 {
		t.Errorf("sweep self = %v, want 30", self["crr.sweep"])
	}
}

func TestIdleFrac(t *testing.T) {
	b := span("betweenness", 0, 10)
	b.WorkerBusyNs = []int64{10e9, 5e9}
	root := span("rep", 0, 10, b)
	if got := idleFrac(root, "betweenness"); got != 0.25 {
		t.Errorf("idleFrac = %v, want 0.25", got)
	}
	if got := idleFrac(root, "absent"); got != 0 {
		t.Errorf("idleFrac of an absent span = %v, want 0", got)
	}
}

func readGraph(t *testing.T, text string) (*graph.Graph, *graph.Remapper) {
	t.Helper()
	g, rm, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return g, rm
}

func TestFingerprintIgnoresOrderAndDenseIDs(t *testing.T) {
	base := fingerprint(readGraph(t, "10 20\n20 30\n30 40\n10 40\n40 50\n"))
	// The same edges in another order and orientation: first-seen dense ids
	// differ, as they would after a pack-time relabel.
	same := fingerprint(readGraph(t, "50 40\n40 10\n30 20\n40 30\n20 10\n"))
	if same != base {
		t.Errorf("reordered fingerprint %v, want %v", same, base)
	}
	dropped := fingerprint(readGraph(t, "10 20\n20 30\n30 40\n10 40\n"))
	if dropped == base {
		t.Error("dropping an edge left the fingerprint unchanged")
	}
	moved := fingerprint(readGraph(t, "10 20\n20 30\n30 40\n10 40\n40 60\n"))
	if moved == base {
		t.Error("moving an edge left the fingerprint unchanged")
	}
}

// corrupting wraps a pipeline and rewrites one line of the output after
// the rep numbered at (0-based).
type corrupting struct {
	pipeline
	out    string
	at, n  int
	t      *testing.T
	broken bool
}

func (c *corrupting) rep(sp *obs.Span) (stages, outcome, error) {
	st, o, err := c.pipeline.rep(sp)
	if c.n == c.at {
		data, rerr := os.ReadFile(c.out)
		if rerr != nil {
			c.t.Fatal(rerr)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		last := strings.Fields(lines[len(lines)-1])
		lines[len(lines)-1] = last[0] + " 999999"
		if err := os.WriteFile(c.out, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			c.t.Fatal(err)
		}
		c.broken = true
	}
	c.n++
	return st, o, err
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	dir := t.TempDir()
	w := workload{name: "crr-tiny", dataset: "ca-GrQc", scale: 64, method: "crr", p: 0.5}
	p := pathsFor(dir, w, 3)
	for _, d := range []string{filepath.Dir(p.packed), p.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := ensureInput(w, 3, p); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.PackEdgeListFile(p.text, p.packed, graph.PackOptions{TmpDir: p.tmp}); err != nil {
		t.Fatal(err)
	}
	pl, err := newPipeline(w, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	c := &corrupting{pipeline: pl, out: p.out, at: 2, t: t}
	var tl tally
	for i := 0; i < 4; i++ {
		tl.do(c, nil)
	}
	if !c.broken {
		t.Fatal("the output was never corrupted")
	}
	if tl.attempted != 4 || tl.failed != 1 {
		t.Fatalf("attempted %d failed %d (%v), want 4 and 1", tl.attempted, tl.failed, tl.errs)
	}
	if tl.ref == nil || tl.ref.Fingerprint == "" {
		t.Fatalf("no reference outcome: %+v", tl.ref)
	}

	// A pin that disagrees with the real output fails every rep.
	wrong := *tl.ref
	wrong.KeptEdges++
	pinned := tally{pin: &wrong}
	pinned.do(pl, nil)
	if pinned.failed != 1 {
		t.Errorf("a mismatched pin failed %d of %d reps", pinned.failed, pinned.attempted)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestNamesMatchBenchmarkJSON keeps the names later work cites from
// drifting: the workloads and the metrics the harness emits, with their
// units and directions, are exactly those BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, harness %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			j := c.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || d.unit == "" {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", c.kind, i, j, d)
			}
		}
	}
	if got, want := keys(endToEndMetrics(setupReport{}, runReport{}, 0)), defNames(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics emitted %v, declared %v", got, want)
	}
	if got, want := keys(layerMetrics(runReport{}, traceReport{})), defNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics emitted %v, declared %v", got, want)
	}
}

func TestEveryWorkloadIsPinned(t *testing.T) {
	pn, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	if len(pn.Workloads) != len(workloads) {
		t.Errorf("pins.json pins %d workloads, want %d", len(pn.Workloads), len(workloads))
	}
	for _, w := range workloads {
		p, ok := pn.Workloads[w.name]
		switch {
		case !ok:
			t.Errorf("%s has no pin", w.name)
		case p.Fingerprint == "" || p.KeptEdges == 0 || p.AvgDis == 0:
			t.Errorf("%s pin is incomplete: %+v", w.name, p)
		case (w.method == "suite") != (len(p.Suite) == len(suiteRows)):
			t.Errorf("%s pins %d suite values", w.name, len(p.Suite))
		}
	}
}
