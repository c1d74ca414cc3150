package edgeshed

// End-to-end integration tests: dataset stand-in → reduction → analysis
// tasks, crossing every package boundary the way cmd/experiments does.

import (
	"math"
	"testing"

	"edgeshed/internal/analysis"
	"edgeshed/internal/core"
	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
	"edgeshed/internal/stream"
	"edgeshed/internal/tasks"
	"edgeshed/internal/uds"
)

// buildSmall returns a laptop-instant ca-GrQc stand-in.
func buildSmall(t *testing.T) *graph.Graph {
	t.Helper()
	spec, err := dataset.ByName("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	return spec.MustBuild(32, spec.DefaultSeed)
}

// TestPipelineAllReducers runs every reducer through the full task suite
// and sanity-checks the paper's core quality ordering.
func TestPipelineAllReducers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g := buildSmall(t)
	suite := tasks.Suite{SkipEmbedding: true, MaxPairs: 5000, Seed: 3}
	reducers := []core.Reducer{
		core.CRR{Seed: 1},
		core.BM2{},
		core.Random{Seed: 2},
		core.ForestFire{Seed: 3},
		core.SpanningForest{Seed: 4},
		core.WeightedSample{Seed: 5},
		uds.Reducer{},
	}
	type outcome struct {
		name      string
		delta     float64
		degreeTVD float64
	}
	var outs []outcome
	for _, r := range reducers {
		res, err := r.Reduce(g, 0.4)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if err := res.Reduced.Validate(); err != nil {
			t.Fatalf("%s: invalid reduction: %v", r.Name(), err)
		}
		ms := suite.Evaluate(g, res.Reduced)
		var degTVD float64
		for _, m := range ms {
			if m.Task == "vertex degree" {
				degTVD = m.Value
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s/%s: non-finite measurement %v", r.Name(), m.Task, m.Value)
			}
		}
		outs = append(outs, outcome{r.Name(), res.Delta(), degTVD})
	}
	// The paper's core ordering: CRR and BM2 dominate every other method on
	// the degree-discrepancy objective.
	find := func(name string) outcome {
		for _, o := range outs {
			if o.name == name {
				return o
			}
		}
		t.Fatalf("missing outcome %q", name)
		return outcome{}
	}
	crr, bm2 := find("CRR"), find("BM2")
	for _, o := range outs {
		if o.name == "CRR" || o.name == "BM2" {
			continue
		}
		if crr.delta >= o.delta {
			t.Errorf("CRR Δ=%v not below %s Δ=%v", crr.delta, o.name, o.delta)
		}
		if bm2.delta >= o.delta {
			t.Errorf("BM2 Δ=%v not below %s Δ=%v", bm2.delta, o.name, o.delta)
		}
	}
}

// TestPipelineStreamingMatchesOffline checks the streaming extension
// end-to-end against offline BM2 on a dataset stand-in.
func TestPipelineStreamingMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g := buildSmall(t)
	p := 0.4
	s, err := stream.NewShedder(stream.Options{P: p, Seed: 7, Nodes: g.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if err := s.Insert(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	offline, err := (core.BM2{}).Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// One-pass with bounded memory should stay within 2x of offline Δ.
	if s.Delta() > 2*offline.Delta() {
		t.Errorf("stream Δ=%v vs offline Δ=%v: more than 2x worse", s.Delta(), offline.Delta())
	}
}

// TestPipelineFileRoundTrip exercises the full I/O path: generate, save in
// both formats, reload, reduce, evaluate.
func TestPipelineFileRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	g := buildSmall(t)
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.esc"} {
		path := dir + "/" + name
		if err := graph.SaveFile(path, g, nil); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		g2, _, err := graph.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		res, err := (core.BM2{}).Reduce(g2, 0.5)
		if err != nil {
			t.Fatalf("%s: reduce: %v", name, err)
		}
		if u := (tasks.TopKTask{}).Utility(g2, res.Reduced); u < 0.5 {
			t.Errorf("%s: top-k utility after round trip = %v, suspiciously low", name, u)
		}
	}
}

// TestPipelineDegreeDistributionPreservation verifies the Figure 5/6 claim
// end to end: the reduced degree distribution, rescaled by p, tracks the
// original's shape for the degree-preserving methods.
func TestPipelineDegreeDistributionPreservation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec, err := dataset.ByName("email-Enron")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.MustBuild(32, spec.DefaultSeed)
	res, err := (core.BM2{}).Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Mean degree of the reduction should be ~p times the original's.
	origMean := g.AvgDegree()
	redMean := res.Reduced.AvgDegree()
	if ratio := redMean / origMean; ratio < 0.4 || ratio > 0.6 {
		t.Errorf("mean degree ratio = %v, want ~0.5", ratio)
	}
	// And the heavy tail survives: reduced max degree stays within a factor
	// ~2 of p times the original max.
	if float64(res.Reduced.MaxDegree()) < 0.25*float64(g.MaxDegree()) {
		t.Errorf("max degree collapsed: %d -> %d", g.MaxDegree(), res.Reduced.MaxDegree())
	}
	_ = analysis.DegreeDistribution(res.Reduced, 300) // exercised for completeness
}
