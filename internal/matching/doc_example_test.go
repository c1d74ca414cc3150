package matching_test

import (
	"fmt"

	"edgeshed/internal/graph/gen"
	"edgeshed/internal/matching"
)

// ExampleGreedyBMatching computes a degree-constrained subgraph of a star:
// the hub's capacity limits how many spokes survive.
func ExampleGreedyBMatching() {
	g := gen.Star(6) // hub 0 with 5 spokes
	caps := []int{2, 1, 1, 1, 1, 1}
	m, err := matching.GreedyBMatching(g, caps, matching.InputOrder)
	if err != nil {
		panic(err)
	}
	fmt.Println("matched edges:", len(m.IDs))
	fmt.Println("hub degree:", m.Degrees[0])
	// Output:
	// matched edges: 2
	// hub degree: 2
}

// ExamplePQ shows the updatable max-priority queue that drives the paper's
// Algorithm 3.
func ExamplePQ() {
	var q matching.PQ[string]
	q.Push("low", 1)
	h := q.Push("mid", 5)
	q.Push("high", 9)
	q.Update(h, 20) // re-weighting, as when a node's discrepancy shifts
	for {
		v, _, ok := q.Pop()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// mid
	// high
	// low
}
