package obs_test

// External test package: the declaration check runs the kernels that
// register metrics, and they all import obs.

import (
	"bytes"
	"path/filepath"
	"testing"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
	"edgeshed/internal/stream"
	"edgeshed/internal/tasks"
)

// TestRegisteredMetricsDeclared complements the literal-name lint
// (metriclint_test.go) with the names built at run time: core's "crr." and
// "bm2." quality prefixes and the "suite.<task>" rows. It runs every
// registering kernel under one live Recorder and requires each counter,
// histogram and quality name the Recorder holds to be declared as the kind
// it was registered as. It also pins that each suite row's
// HigherIsBetter agrees with its row's declared direction.
func TestRegisteredMetricsDeclared(t *testing.T) {
	rec := obs.New("declared")
	sp := rec.Root()
	g := gen.BarabasiAlbert(400, 3, 1)

	crr := core.CRR{Seed: 1, Workers: 2, Obs: sp, Betweenness: centrality.Options{Samples: 64, Seed: 1}}
	results, err := crr.Sweep(g, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.BM2{Obs: sp}).Reduce(g, 0.5); err != nil {
		t.Fatal(err)
	}
	rows := tasks.Suite{Sources: 32, Seed: 1, Workers: 2, Obs: sp}.Evaluate(g, results[0].Reduced)
	centrality.Closeness(g, centrality.Options{Samples: 32, Seed: 1, Workers: 2, Obs: sp})
	analysis.NewDistanceProfile(g, analysis.ProfileOptions{Sources: 32, Seed: 1, Workers: 2, Obs: sp})

	// Enough inserts to cross a stream epoch, where the epoch probes fold.
	sg := gen.BarabasiAlbert(6000, 3, 2)
	sh, err := stream.NewShedder(stream.Options{P: 0.5, Seed: 1, Nodes: sg.NumNodes(), Obs: sp})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sg.Edges() {
		if err := sh.Insert(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if sh.Seen() <= stream.StreamEpoch {
		t.Fatalf("%d inserts do not cross a %d-insert epoch", sh.Seen(), stream.StreamEpoch)
	}

	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := graph.ReadEdgeListOpts(bytes.NewReader(text.Bytes()), graph.EdgeListOptions{Obs: sp}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := graph.WriteEdgeListFile(txt, g, nil); err != nil {
		t.Fatal(err)
	}
	st, err := graph.PackEdgeListFile(txt, filepath.Join(dir, "g.esc"), graph.PackOptions{MemBudget: 4096, TmpDir: dir, Obs: sp})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillChunks == 0 {
		t.Fatal("the pack did not spill")
	}

	check := func(what string, kind obs.Kind, names []string) {
		t.Helper()
		if len(names) == 0 {
			t.Errorf("no %s registered", what)
		}
		for _, name := range names {
			if got := obs.Describe(name).Kind; got != kind {
				t.Errorf("%s %q is declared as kind %d, want %d", what, name, got, kind)
			}
		}
	}
	check("counter", obs.KindCounter, keys(rec.CounterValues()))
	check("histogram", obs.KindHistogram, keys(rec.HistogramValues()))
	quality := rec.QualityValues()
	check("quality probe", obs.KindQuality, keys(quality))
	for _, name := range []string{"crr.headroom.theorem1", "bm2.headroom.theorem2", "stream.epoch.delta"} {
		if _, ok := quality[name]; !ok {
			t.Errorf("quality probe %q never recorded", name)
		}
	}

	if len(rows) != 8 {
		t.Fatalf("suite gave %d rows, want 8", len(rows))
	}
	for _, m := range rows {
		name := "suite." + m.Task
		if _, ok := quality[name]; !ok {
			t.Errorf("suite row %q recorded no %q probe", m.Task, name)
		}
		want := obs.Lower
		if m.HigherIsBetter {
			want = obs.Higher
		}
		if got := obs.Describe(name).Better; got != want {
			t.Errorf("%q is declared %s, but its row says HigherIsBetter=%v", name, got, m.HigherIsBetter)
		}
	}
}

// keys returns m's keys in no particular order.
func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
