package core

import (
	"math"
	"testing"
	"testing/quick"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func TestCRRTargetEdgeCount(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 7)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res, err := CRR{Seed: 1, Steps: 10}.Reduce(g, p)
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		want := int(math.Round(p * float64(g.NumEdges())))
		if got := res.Reduced.NumEdges(); got != want {
			t.Errorf("p=%v: |E'| = %d, want [P] = %d", p, got, want)
		}
	}
}

func TestCRRIsSubgraph(t *testing.T) {
	g := gen.ErdosRenyi(100, 250, 5)
	res, err := CRR{Seed: 2}.Reduce(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Reduced.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("reduced edge %v not in original", e)
		}
	}
	if err := res.Reduced.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestCRRMoreStepsNeverWorse(t *testing.T) {
	// With a shared seed, the rewiring trajectory of a longer run extends
	// the shorter one, and swaps only ever reduce Δ.
	g := gen.BarabasiAlbert(150, 3, 11)
	short, err := CRR{Seed: 9, Steps: 20}.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := CRR{Seed: 9, Steps: 4000}.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if long.Delta() > short.Delta()+1e-9 {
		t.Errorf("Δ(4000 steps) = %v > Δ(20 steps) = %v", long.Delta(), short.Delta())
	}
}

func TestCRRRewiringImprovesOverPhase1(t *testing.T) {
	// Phase 1 alone (Steps ≈ 0 is not expressible; use 1 step) should be
	// beaten by the default [10·P] steps on a hub-heavy graph, where pure
	// centrality ranking overloads hubs.
	g := gen.BarabasiAlbert(200, 4, 13)
	one, err := CRR{Seed: 3, Steps: 1}.Reduce(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := CRR{Seed: 3}.Reduce(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if full.Delta() >= one.Delta() {
		t.Errorf("default steps Δ = %v, not better than 1-step Δ = %v", full.Delta(), one.Delta())
	}
}

func TestCRRDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 21)
	a, err := CRR{Seed: 5}.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CRR{Seed: 5}.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ae, be := a.Reduced.Edges(), b.Reduced.Edges()
	if len(ae) != len(be) {
		t.Fatal("sizes differ across identical runs")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs across identical runs", i)
		}
	}
}

func TestCRRTheorem1Bound(t *testing.T) {
	// Theorem 1: the average absolute discrepancy is below 4p(1−p)|E|/|V|.
	f := func(seed int64, pRaw uint8) bool {
		p := 0.1 + 0.8*float64(pRaw)/255
		g := gen.BarabasiAlbert(80, 3, seed)
		res, err := CRR{Seed: seed, Steps: 200}.Reduce(g, p)
		if err != nil {
			return false
		}
		return res.AvgDisPerNode() < CRRBound(g, p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCRRKeepsBridges(t *testing.T) {
	// Two K5 cliques joined by one bridge: the bridge has maximal edge
	// betweenness, so Phase 1 must keep it at any reasonable p.
	b := graph.NewBuilder(10)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
			b.TryAddEdge(graph.NodeID(u+5), graph.NodeID(v+5))
		}
	}
	b.TryAddEdge(0, 5) // the bridge
	g := b.Graph()
	// Steps < 0 disables rewiring: Phase 1 ranks purely by betweenness, so
	// the bridge must survive. (Phase 2 may legitimately trade it away: Δ
	// does not reward connectivity.)
	res, err := CRR{Seed: 1, Steps: -1}.Reduce(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced.HasEdge(0, 5) {
		t.Error("CRR shed the bridge edge, the highest-betweenness edge in the graph")
	}
}

func TestCRRSampledCentrality(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 31)
	res, err := CRR{
		Seed:        7,
		Betweenness: centrality.Options{Samples: 60, Seed: 8},
	}.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Round(0.5 * float64(g.NumEdges())))
	if got := res.Reduced.NumEdges(); got != want {
		t.Errorf("|E'| = %d, want %d", got, want)
	}
	// Sampled Phase 1 must still produce a sane reduction: Δ below the
	// theorem bound.
	if res.AvgDisPerNode() >= CRRBound(g, 0.5) {
		t.Errorf("sampled CRR broke Theorem 1: %v >= %v", res.AvgDisPerNode(), CRRBound(g, 0.5))
	}
}

func TestCRRStepsResolution(t *testing.T) {
	if got := (CRR{Steps: 42}).steps(100); got != 42 {
		t.Errorf("explicit steps = %d, want 42", got)
	}
	if got := (CRR{}).steps(100); got != 1000 {
		t.Errorf("default steps for P=100: %d, want 1000", got)
	}
	if got := (CRR{StepsFactor: 2.5}).steps(100); got != 250 {
		t.Errorf("factor 2.5 steps = %d, want 250", got)
	}
}

func TestCRRPNearOneKeepsEverything(t *testing.T) {
	g := gen.Cycle(10) // [0.99 * 10] = 10: keep all edges
	res, err := CRR{Seed: 1}.Reduce(g, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.NumEdges() != 10 {
		t.Errorf("|E'| = %d, want 10", res.Reduced.NumEdges())
	}
}

func TestCRRSweepMatchesIndividualRuns(t *testing.T) {
	// A sweep point must equal a standalone run with the same precomputed
	// scores and the same derived per-ratio seed (and, trivially, the same
	// target edge count as Reduce at that p).
	g := gen.BarabasiAlbert(150, 3, 51)
	ps := []float64{0.7, 0.4, 0.2}
	c := CRR{Seed: 9}
	swept, err := c.Sweep(g, ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 3 {
		t.Fatalf("sweep returned %d results", len(swept))
	}
	for i, p := range ps {
		single, err := c.reduce(g, p, nil, sweepSeed(c.Seed, i), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		se, pe := single.Reduced.Edges(), swept[i].Reduced.Edges()
		if len(se) != len(pe) {
			t.Fatalf("p=%v: sweep |E'|=%d vs single %d", p, len(pe), len(se))
		}
		for j := range se {
			if se[j] != pe[j] {
				t.Fatalf("p=%v: edge %d differs between sweep and single run", p, j)
			}
		}
		plain, err := c.Reduce(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Reduced.NumEdges() != swept[i].Reduced.NumEdges() {
			t.Fatalf("p=%v: sweep |E'|=%d vs Reduce %d", p, swept[i].Reduced.NumEdges(), plain.Reduced.NumEdges())
		}
	}
}

func TestCRRSweepDistinctPerRatioRandomness(t *testing.T) {
	// Regression for the re-seeding bug: with all-equal importance scores
	// the kept set is decided purely by the tie-break permutation, so two
	// sweep points at the same ratio must differ — the seed code replayed
	// rand.NewSource(c.Seed) per ratio and made them identical.
	g := gen.ErdosRenyi(120, 400, 77)
	c := CRR{Seed: 5, Importance: ImportanceRandom, Steps: -1}
	swept, err := c.Sweep(g, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := swept[0].Reduced.Edges(), swept[1].Reduced.Edges()
	if len(a) != len(b) {
		t.Fatalf("|E'| differs across equal ratios: %d vs %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two sweep points with all-equal scores kept identical edge sets")
	}
	// The sweep itself stays reproducible for a fixed Seed.
	again, err := c.Sweep(g, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for k := range swept {
		ae, be := swept[k].Reduced.Edges(), again[k].Reduced.Edges()
		if len(ae) != len(be) {
			t.Fatalf("sweep point %d not reproducible", k)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("sweep point %d edge %d differs across identical sweeps", k, i)
			}
		}
	}
}

func TestCRRSweepRejectsBadP(t *testing.T) {
	g := gen.Cycle(10)
	if _, err := (CRR{}).Sweep(g, []float64{0.5, 1.5}); err == nil {
		t.Error("sweep accepted p > 1")
	}
}

func TestCRRImportanceVariants(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 33)
	for _, im := range []Importance{ImportanceBetweenness, ImportanceDegreeProduct, ImportanceRandom} {
		res, err := (CRR{Seed: 3, Importance: im}).Reduce(g, 0.4)
		if err != nil {
			t.Fatalf("%v: %v", im, err)
		}
		want := int(math.Round(0.4 * float64(g.NumEdges())))
		if got := res.Reduced.NumEdges(); got != want {
			t.Errorf("%v: |E'| = %d, want %d", im, got, want)
		}
		if res.AvgDisPerNode() >= CRRBound(g, 0.4) {
			t.Errorf("%v: broke Theorem 1 bound", im)
		}
	}
}

func TestImportanceString(t *testing.T) {
	if ImportanceBetweenness.String() != "betweenness" ||
		ImportanceDegreeProduct.String() != "degree-product" ||
		ImportanceRandom.String() != "random" {
		t.Error("Importance strings wrong")
	}
	if Importance(42).String() != "Importance(42)" {
		t.Errorf("unknown importance string = %q", Importance(42).String())
	}
}

func TestCRRDegreeProductKeepsHubEdges(t *testing.T) {
	// Phase 1 with degree-product importance must rank hub-hub edges first.
	g := gen.Star(20) // all edges hub-leaf with equal product: check no crash
	res, err := (CRR{Seed: 1, Steps: -1, Importance: ImportanceDegreeProduct}).Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.NumEdges() != 10 {
		t.Errorf("|E'| = %d, want 10", res.Reduced.NumEdges())
	}
}

func TestCRRTinyP(t *testing.T) {
	g := gen.Cycle(10) // [0.01 * 10] = 0 edges
	res, err := CRR{Seed: 1}.Reduce(g, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.NumEdges() != 0 {
		t.Errorf("|E'| = %d, want 0", res.Reduced.NumEdges())
	}
	if res.ActiveNodes() != 0 {
		t.Errorf("ActiveNodes = %d, want 0", res.ActiveNodes())
	}
}

// TestCRRSweepBitIdenticalAcrossWorkerCounts pins the parallel Sweep's
// determinism contract: every worker count — including counts that do not
// divide the ratio count — produces exactly the serial results. Runs under
// -race in CI, which also proves the per-ratio reductions share no mutable
// state.
func TestCRRSweepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	for name, g := range map[string]*graph.Graph{
		"barabasi-albert":   gen.BarabasiAlbert(300, 3, 5),
		"planted-partition": gen.PlantedPartition(3, 80, 0.08, 0.01, 6),
	} {
		base := CRR{Seed: 21, Importance: ImportanceDegreeProduct}
		base.Workers = 1
		want, err := base.Sweep(g, ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			c := base
			c.Workers = workers
			got, err := c.Sweep(g, ps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ps {
				ge, we := got[i].Reduced.Edges(), want[i].Reduced.Edges()
				if len(ge) != len(we) {
					t.Fatalf("%s workers=%d p=%v: %d edges, serial kept %d",
						name, workers, ps[i], len(ge), len(we))
				}
				for j := range ge {
					if ge[j] != we[j] {
						t.Fatalf("%s workers=%d p=%v: edge %d = %v, serial has %v",
							name, workers, ps[i], j, ge[j], we[j])
					}
				}
			}
		}
	}
}

// TestCRRReduceBitIdenticalAcrossWorkersAndBatch pins the end-to-end CRR
// determinism contract on the batched MS-BFS Phase 1: the kept edge set is a
// function of (graph, p, Seed, Steps) alone, so any Workers count and any
// MS-BFS Batch width of the betweenness kernel must reproduce the baseline
// reduction edge for edge — the knobs regroup Phase 1's traversals without
// moving one score bit, so the ranking, tie-breaks and Phase 2 rng stream
// are untouched. The sampled mode is the pipeline benchmark's shape: 256
// sources, 16 per shard, so several shards share one traversal.
func TestCRRReduceBitIdenticalAcrossWorkersAndBatch(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 31)
	for _, samples := range []int{0, 256} {
		base := CRR{Seed: 5, Steps: 200, Betweenness: centrality.Options{Samples: samples, Seed: 9}}
		want, err := base.Reduce(g, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantEdges := want.Reduced.Edges()
		for _, workers := range []int{1, 2, 4, 7} {
			for _, batch := range []int{1, 8, 64} {
				c := base
				c.Betweenness.Workers = workers
				c.Betweenness.Batch = batch
				got, err := c.Reduce(g, 0.5)
				if err != nil {
					t.Fatalf("samples=%d workers=%d batch=%d: %v", samples, workers, batch, err)
				}
				gotEdges := got.Reduced.Edges()
				if len(gotEdges) != len(wantEdges) {
					t.Fatalf("samples=%d workers=%d batch=%d: |E'| = %d, want %d",
						samples, workers, batch, len(gotEdges), len(wantEdges))
				}
				for i := range wantEdges {
					if gotEdges[i] != wantEdges[i] {
						t.Fatalf("samples=%d workers=%d batch=%d: kept edge %d = %v, want %v",
							samples, workers, batch, i, gotEdges[i], wantEdges[i])
					}
				}
				if got.Delta() != want.Delta() {
					t.Fatalf("samples=%d workers=%d batch=%d: Δ = %v, want %v",
						samples, workers, batch, got.Delta(), want.Delta())
				}
			}
		}
	}
}
