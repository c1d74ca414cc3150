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

// embedCase is the suite case with the node2vec row on: a scale-free graph
// small enough to embed many times under -race.
var embedCase = suiteCase{"BA+node2vec", gen.BarabasiAlbert(60, 3, 11), true}

type suiteCase struct {
	name  string
	g     *graph.Graph
	embed bool
}

func (c suiteCase) suite(workers int) Suite {
	return Suite{Sources: 64, MaxPairs: 2000, Seed: 5, SkipEmbedding: !c.embed, Workers: workers}
}

// TestSuiteBitIdenticalAcrossWorkerCounts is the cross-worker determinism
// property test: every measurement Suite.Evaluate produces — betweenness
// included, via the fixed-shard accumulation — must be bit-identical for
// Workers ∈ {1, 2, 4, 7} on both a scale-free and a community-structured
// graph, and on a small graph with the node2vec row, whose two sides embed
// concurrently.
func TestSuiteBitIdenticalAcrossWorkerCounts(t *testing.T) {
	graphs := []suiteCase{
		{"BA", gen.BarabasiAlbert(300, 3, 11), false},
		{"PP", gen.PlantedPartition(4, 75, 0.15, 0.01, 13), false},
		embedCase,
	}
	for _, tg := range graphs {
		red := dropEveryThird(tg.g)
		base := tg.suite(1)
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
// change a single measurement bit, at serial and parallel worker counts,
// with and without the node2vec row.
func TestSuiteBitIdenticalWithObs(t *testing.T) {
	for _, tg := range []suiteCase{{"BA", gen.BarabasiAlbert(300, 3, 11), false}, embedCase} {
		g, red := tg.g, dropEveryThird(tg.g)
		for _, workers := range []int{1, 2, 4, 7} {
			s := tg.suite(workers)
			want := s.Evaluate(g, red)
			rec := obs.New("test")
			prev := par.SetSlotObserver(rec.Flight())
			s.Obs = rec.Root()
			got := s.Evaluate(g, red)
			par.SetSlotObserver(prev)
			rec.Root().End()
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d measurements with obs, want %d", tg.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i].Value != want[i].Value {
					t.Fatalf("%s workers=%d task %q: value %v with obs != %v without",
						tg.name, workers, want[i].Task, got[i].Value, want[i].Value)
				}
			}
			// The recorder must actually have observed the run: the span tree
			// carries one task child per measurement and the kernels' counters
			// merged to non-zero totals.
			tree := rec.SpanTree()
			if len(tree.Children) != 1 || len(tree.Children[0].Children) != len(want) {
				t.Fatalf("%s workers=%d: span tree shape %+v", tg.name, workers, tree)
			}
			vals := rec.CounterValues()
			if vals["bfs.sources_done"] == 0 || vals["betweenness.sources_done"] == 0 ||
				vals["msbfs.batches_done"] == 0 || vals["pagerank.iterations"] == 0 {
				t.Fatalf("%s workers=%d: kernel counters missing: %v", tg.name, workers, vals)
			}
			// The MS-BFS kernels under the suite feed the batch
			// histograms and the flight ring records slot/batch traffic.
			hists := rec.HistogramValues()
			if hists["msbfs.batch_ns"] == nil || hists["msbfs.batch_ns"].Count == 0 {
				t.Fatalf("%s workers=%d: msbfs.batch_ns histogram missing or empty", tg.name, workers)
			}
			if len(rec.Flight().Events()) == 0 {
				t.Fatalf("%s workers=%d: flight ring stayed empty", tg.name, workers)
			}
		}
	}
}
