package edgeshed_test

// Facade tests: everything here uses only the public API, the way an
// external module would.

import (
	"math"
	"strings"
	"testing"

	"edgeshed"
)

func TestFacadeReduceRoundTrip(t *testing.T) {
	g := edgeshed.BarabasiAlbert(300, 3, 1)
	for _, r := range []edgeshed.Reducer{
		edgeshed.CRR{Seed: 1},
		edgeshed.BM2{},
		edgeshed.Random{Seed: 2},
		edgeshed.ForestFire{Seed: 3},
		edgeshed.SpanningForest{Seed: 4},
		edgeshed.WeightedSample{Seed: 5},
		edgeshed.UDS{},
	} {
		res, err := r.Reduce(g, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if res.Reduced.NumEdges() == 0 {
			t.Errorf("%s: empty reduction", r.Name())
		}
		if math.IsNaN(res.Delta()) {
			t.Errorf("%s: NaN delta", r.Name())
		}
	}
}

func TestFacadeBounds(t *testing.T) {
	g := edgeshed.BarabasiAlbert(200, 3, 2)
	res, err := (edgeshed.CRR{Seed: 1}).Reduce(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDisPerNode() >= edgeshed.CRRBound(g, 0.4) {
		t.Error("facade bound check failed")
	}
	if edgeshed.BM2Bound(g, 0.4) <= 0 {
		t.Error("BM2 bound not positive")
	}
}

func TestFacadeIO(t *testing.T) {
	g, rm, err := edgeshed.ReadEdgeList(strings.NewReader("10 20\n20 30\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %v", g)
	}
	path := t.TempDir() + "/g.esc"
	if err := edgeshed.SaveFile(path, g, rm); err != nil {
		t.Fatal(err)
	}
	g2, _, err := edgeshed.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Errorf("round trip |E| = %d", g2.NumEdges())
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := edgeshed.NewBuilder(3)
	b.TryAddEdge(0, 1)
	b.TryAddEdge(1, 2)
	g := b.Graph()
	if g.Degree(edgeshed.NodeID(1)) != 2 {
		t.Errorf("degree = %d", g.Degree(1))
	}
}

func TestFacadeAnalysis(t *testing.T) {
	g := edgeshed.HolmeKim(200, 3, 0.6, 3)
	pr := edgeshed.PageRank(g)
	var sum float64
	for _, s := range pr {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PageRank mass = %v", sum)
	}
	if cc := edgeshed.AverageClustering(g); cc <= 0 {
		t.Errorf("Holme-Kim clustering = %v, want > 0", cc)
	}
	dist := edgeshed.DegreeDistribution(g, 0)
	if len(dist) == 0 {
		t.Error("empty degree distribution")
	}
	bc := edgeshed.NodeBetweenness(g, edgeshed.CentralityOptions{Samples: 50, Seed: 1})
	if len(bc) != g.NumNodes() {
		t.Error("betweenness length mismatch")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(edgeshed.Datasets()) != 4 {
		t.Error("catalog size != 4")
	}
	spec, err := edgeshed.DatasetByName("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(64, spec.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5242/64 {
		t.Errorf("|V| = %d", g.NumNodes())
	}
}

func TestFacadeStream(t *testing.T) {
	s, err := edgeshed.NewStreamShedder(edgeshed.StreamOptions{P: 0.5, Seed: 1, Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	g := edgeshed.ErdosRenyi(100, 300, 2)
	for _, e := range g.Edges() {
		if err := s.Insert(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	if s.Kept() == 0 || s.Kept() > 150 {
		t.Errorf("kept = %d", s.Kept())
	}
}

func TestFacadeSuite(t *testing.T) {
	g := edgeshed.BarabasiAlbert(100, 3, 4)
	res, err := (edgeshed.BM2{}).Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	suite := edgeshed.TaskSuite{SkipEmbedding: true, Seed: 5}
	ms := suite.Evaluate(g, res.Reduced)
	if len(ms) == 0 {
		t.Fatal("no measurements")
	}
	var m edgeshed.TaskMeasurement = ms[0]
	if m.Task == "" {
		t.Error("unnamed measurement")
	}
}

func TestFacadePlantedPartition(t *testing.T) {
	g := edgeshed.PlantedPartition(3, 20, 0.4, 0.02, 6)
	if g.NumNodes() != 60 {
		t.Errorf("|V| = %d", g.NumNodes())
	}
}
