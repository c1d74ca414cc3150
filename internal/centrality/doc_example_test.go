package centrality_test

import (
	"fmt"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

// ExampleEdgeBetweennessScores finds the bridge between two cliques — the
// edge CRR's Phase 1 protects — and looks its score up by endpoints.
func ExampleEdgeBetweennessScores() {
	b := graph.NewBuilder(8)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
			b.TryAddEdge(graph.NodeID(u+4), graph.NodeID(v+4))
		}
	}
	b.TryAddEdge(0, 4) // the bridge
	g := b.Graph()
	scores := centrality.EdgeBetweennessScores(g, centrality.Options{})
	best, bestScore := graph.Edge{}, -1.0
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = g.Edges()[i], s
		}
	}
	fmt.Println("highest-betweenness edge:", best)
	fmt.Println("score of (4,0):", scores[g.CSR().EdgeIDOf(4, 0)])
	// Output:
	// highest-betweenness edge: (0,4)
	// score of (4,0): 16
}

// ExampleNodeBetweenness scores the middle of a path highest.
func ExampleNodeBetweenness() {
	g := gen.Path(5)
	bc := centrality.NodeBetweenness(g, centrality.Options{})
	fmt.Println("center score:", bc[2])
	fmt.Println("end score:", bc[0])
	// Output:
	// center score: 4
	// end score: 0
}
