package matching

// Oracle test for the edge-id migration of GreedyBMatching: the seed
// implementation copied and stable-sorted []graph.Edge values, recomputing
// the capacity key inside every comparison; the production code now sorts
// int32 edge ids over precomputed keys. Both must select the identical edge
// sequence for any (graph, caps, order).

import (
	"math/rand"
	"sort"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// seedGreedyBMatching is the pre-migration implementation, kept verbatim
// (minus the validation both share) except that it returns the matched
// edges and degrees instead of a BMatching, which now carries ids only.
func seedGreedyBMatching(g *graph.Graph, caps []int, order EdgeOrder) (matched []graph.Edge, degrees []int) {
	edges := g.Edges()
	if order != InputOrder {
		edges = append([]graph.Edge(nil), edges...)
		key := func(e graph.Edge) int {
			cu, cv := caps[e.U], caps[e.V]
			if cu < cv {
				return cu
			}
			return cv
		}
		sort.SliceStable(edges, func(i, j int) bool {
			if order == ScarceFirst {
				return key(edges[i]) < key(edges[j])
			}
			return key(edges[i]) > key(edges[j])
		})
	}
	degrees = make([]int, g.NumNodes())
	for _, e := range edges {
		if degrees[e.U] < caps[e.U] && degrees[e.V] < caps[e.V] {
			matched = append(matched, e)
			degrees[e.U]++
			degrees[e.V]++
		}
	}
	return matched, degrees
}

func TestGreedyBMatchingMatchesSeedImplementation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"barabasi-albert":   gen.BarabasiAlbert(400, 3, 7),
		"erdos-renyi":       gen.ErdosRenyi(400, 900, 11),
		"planted-partition": gen.PlantedPartition(4, 100, 0.05, 0.005, 13),
	}
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(17))
		caps := make([]int, g.NumNodes())
		for u := range caps {
			caps[u] = rng.Intn(1 + g.Degree(graph.NodeID(u)))
		}
		for _, order := range []EdgeOrder{InputOrder, ScarceFirst, DenseFirst} {
			got, err := GreedyBMatching(g, caps, order)
			if err != nil {
				t.Fatal(err)
			}
			want, wantDeg := seedGreedyBMatching(g, caps, order)
			if len(got.IDs) != len(want) {
				t.Fatalf("%s/%v: matched %d edges, oracle %d", name, order, len(got.IDs), len(want))
			}
			all := g.Edges()
			for i, id := range got.IDs {
				if all[id] != want[i] {
					t.Fatalf("%s/%v: edge %d = %v (id %d), oracle %v", name, order, i, all[id], id, want[i])
				}
			}
			for u := range got.Degrees {
				if got.Degrees[u] != wantDeg[u] {
					t.Fatalf("%s/%v: degree[%d] = %d, oracle %d", name, order, u, got.Degrees[u], wantDeg[u])
				}
			}
		}
	}
}
