package tasks

import (
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// dropEveryThird builds a "reduced" graph by shedding every third edge of g,
// a deterministic stand-in for a reducer that keeps the suite's inputs fixed
// across worker counts without importing internal/core.
func dropEveryThird(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumNodes())
	for i, e := range g.Edges() {
		if i%3 == 2 {
			continue
		}
		b.TryAddEdge(e.U, e.V)
	}
	return b.Graph()
}

// TestSuiteBitIdenticalAcrossWorkerCounts is the cross-worker determinism
// property test: every measurement Suite.Evaluate produces — betweenness
// included, via the fixed-shard accumulation — must be bit-identical for
// Workers ∈ {1, 2, 4, 7} on both a scale-free and a community-structured
// graph.
func TestSuiteBitIdenticalAcrossWorkerCounts(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"BA", gen.BarabasiAlbert(300, 3, 11)},
		{"PP", gen.PlantedPartition(4, 75, 0.15, 0.01, 13)},
	}
	for _, tg := range graphs {
		red := dropEveryThird(tg.g)
		base := Suite{Sources: 64, MaxPairs: 2000, Seed: 5, SkipEmbedding: true, Workers: 1}
		want := base.Evaluate(tg.g, red)
		for _, workers := range []int{2, 4, 7} {
			s := base
			s.Workers = workers
			got := s.Evaluate(tg.g, red)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d measurements, want %d", tg.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Task != want[i].Task {
					t.Fatalf("%s workers=%d row %d: task %q, want %q",
						tg.name, workers, i, got[i].Task, want[i].Task)
				}
				if got[i].Value != want[i].Value {
					t.Fatalf("%s workers=%d task %q: value %v != workers=1 value %v",
						tg.name, workers, got[i].Task, got[i].Value, want[i].Value)
				}
			}
		}
	}
}

// TestSuiteBitIdenticalWithObs pins the instrumentation non-perturbation
// guarantee for the evaluation suite: turning a live recorder on must not
// change a single measurement bit, at serial and parallel worker counts.
func TestSuiteBitIdenticalWithObs(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	red := dropEveryThird(g)
	for _, workers := range []int{1, 4} {
		s := Suite{Sources: 64, MaxPairs: 2000, Seed: 5, SkipEmbedding: true, Workers: workers}
		want := s.Evaluate(g, red)
		rec := obs.New("test")
		prev := par.SetSlotObserver(rec.Flight())
		s.Obs = rec.Root()
		got := s.Evaluate(g, red)
		par.SetSlotObserver(prev)
		rec.Root().End()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d measurements with obs, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Value != want[i].Value {
				t.Fatalf("workers=%d task %q: value %v with obs != %v without",
					workers, want[i].Task, got[i].Value, want[i].Value)
			}
		}
		// The recorder must actually have observed the run: the span tree
		// carries one task child per measurement and the kernels' counters
		// merged to non-zero totals.
		tree := rec.SpanTree()
		if len(tree.Children) != 1 || len(tree.Children[0].Children) != len(want) {
			t.Fatalf("workers=%d: span tree shape %+v", workers, tree)
		}
		vals := rec.CounterValues()
		if vals["bfs.sources_done"] == 0 || vals["betweenness.sources_done"] == 0 ||
			vals["msbfs.batches_done"] == 0 || vals["pagerank.iterations"] == 0 {
			t.Fatalf("workers=%d: kernel counters missing: %v", workers, vals)
		}
		// PR-9 surfaces: the MS-BFS kernels under the suite feed the batch
		// histograms and the flight ring records slot/batch traffic.
		hists := rec.HistogramValues()
		if hists["msbfs.batch_ns"] == nil || hists["msbfs.batch_ns"].Count == 0 {
			t.Fatalf("workers=%d: msbfs.batch_ns histogram missing or empty", workers)
		}
		if len(rec.Flight().Events()) == 0 {
			t.Fatalf("workers=%d: flight ring stayed empty", workers)
		}
	}
}
