package centrality

import (
	"math"
	"testing"

	"edgeshed/internal/graph"
)

// decodeFuzzGraph turns fuzz input into a graph on at most 64 nodes and a
// sample count: byte 0 picks the node count, byte 1 the samples, and each
// following byte pair an edge. Self-loops and repeats are dropped, so any
// input decodes; isolated nodes and several components come for free.
func decodeFuzzGraph(data []byte) (*graph.Graph, int) {
	if len(data) < 2 {
		return graph.MustFromEdges(1, nil), 1
	}
	n := 1 + int(data[0])%64
	samples := 1 + int(data[1])%8
	b := graph.NewBuilder(n)
	for i := 2; i+1 < len(data); i += 2 {
		b.TryAddEdge(graph.NodeID(int(data[i])%n), graph.NodeID(int(data[i+1])%n))
	}
	return b.Graph(), samples
}

// sameBits reports whether got and want hold the same float64 bit patterns.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// FuzzBetweennessMatchesOracle is the differential check of the batched
// kernel against canonicalBetweenness on arbitrary small graphs: node
// scores, edge scores and both halves of the combined call must equal the
// serial canonical replay bit for bit at Workers {1, 3} × Batch {1, 64},
// exact and with a few sampled sources. The seeds run in `go test`; run
// `go test -fuzz FuzzBetweennessMatchesOracle ./internal/centrality/` to
// search further.
func FuzzBetweennessMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 1})                               // one edge
	f.Add([]byte{4, 1, 0, 1, 1, 2, 2, 3, 3, 0})             // 4-cycle: two shortest paths
	f.Add([]byte{9, 2, 0, 1, 1, 2, 2, 0, 4, 5, 6, 7, 7, 8}) // components and an isolated node
	f.Add([]byte{6, 3, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})       // star
	f.Add([]byte{63, 5, 0, 1, 1, 2, 2, 3, 3, 4, 10, 11, 11, 12, 12, 10, 30, 40, 40, 50, 50, 63, 63, 30, 5, 9, 9, 20, 20, 33})
	big := []byte{63, 7}
	for i := 0; i < 200; i++ {
		big = append(big, byte(i*37+11), byte(i*53+29))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, samples := decodeFuzzGraph(data)
		for _, mode := range []Options{{}, {Samples: samples, Seed: int64(len(data))}} {
			wantN, wantE := canonicalBetweenness(g, mode)
			for _, workers := range []int{1, 3} {
				for _, batch := range []int{1, 64} {
					opt := mode
					opt.Workers, opt.Batch = workers, batch
					if got := NodeBetweenness(g, opt); !sameBits(got, wantN) {
						t.Fatalf("%v samples=%d workers=%d batch=%d: NodeBetweenness %v != oracle %v",
							g.Edges(), opt.Samples, workers, batch, got, wantN)
					}
					if got := EdgeBetweennessScores(g, opt); !sameBits(got, wantE) {
						t.Fatalf("%v samples=%d workers=%d batch=%d: EdgeBetweennessScores %v != oracle %v",
							g.Edges(), opt.Samples, workers, batch, got, wantE)
					}
					gotN, gotE := Betweenness(g, opt)
					if !sameBits(gotN, wantN) || !sameBits(gotE, wantE) {
						t.Fatalf("%v samples=%d workers=%d batch=%d: Betweenness (%v, %v) != oracle (%v, %v)",
							g.Edges(), opt.Samples, workers, batch, gotN, gotE, wantN, wantE)
					}
				}
			}
		}
	})
}
