// Package centrality computes betweenness centrality for nodes and edges of
// unweighted undirected graphs using Brandes' algorithm (Brandes 2001,
// paper reference [24]): O(|V|+|E|) space and O(|V||E|) time exact, or
// O(s|E|) with s sampled sources for the large graphs where exact
// computation violates the paper's resource constraints.
//
// Every public entry point runs on the bit-parallel MS-BFS engine
// (internal/msbfs): one traversal carries up to Options.Batch sources, the
// sigma/delta phases walk the discovered levels with one float64 per
// (node, batch bit) pair, and node and edge dependencies fold through the
// fixed-shard discipline in a canonical order — so the scores are
// bit-identical at any Workers count and any Batch width. The seed
// map-indexed per-source Brandes survives only as a test oracle.
//
// Betweenness is the backbone of CRR Phase 1 (edge ranking) and of the UDS
// comparator's node/edge importance scores.
package centrality

import (
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// Options configures a betweenness computation.
type Options struct {
	// Samples is the number of BFS source nodes. 0 (or >= |V|) means exact:
	// every node is a source. A negative value is treated as 0, i.e. exact —
	// callers wanting validation should check before constructing Options.
	// With sampling, scores are scaled by |V|/Samples so they estimate the
	// exact values.
	Samples int
	// Workers is the parallelism inside each batch. 0 means GOMAXPROCS; a
	// negative value is likewise treated as GOMAXPROCS. Batches run one at
	// a time in source order, and every worker takes part in each: the
	// traversal is serial, then each BFS level of the sigma and delta
	// sweeps and the folds are split into static blocks the workers share.
	// Sources still accumulate into par.Shards fixed shards (contiguous
	// blocks of the source list) that merge in shard order, so the scores
	// are bit-identical at ANY worker count, not just deterministic per
	// count; the shards bound no worker count. Scratch memory does not
	// grow with Workers.
	Workers int
	// Seed drives source sampling; ignored when exact.
	Seed int64
	// Batch is the MS-BFS batch width: how many sources share one
	// traversal, one bit each. 0, negative, or >64 — anything outside
	// [1, 64] — selects the full 64-bit word, mirroring how Samples and
	// Workers absorb out-of-range values (msbfs.Width is the single
	// clamping point). The width changes wall-clock time and scratch memory
	// only (batched Brandes holds 16·Batch bytes of sigma/delta state per
	// node, once, whatever the worker count) — node AND edge scores are
	// bit-identical at any width.
	Batch int
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, the kernel reports a "betweenness" span
	// with per-worker busy time, a "betweenness.sources_done" counter, a
	// "betweenness.mapped_bytes" counter of the row and mask bytes it held
	// outside the Go heap, the engine's "msbfs.*" counters and histograms
	// and — on the edge path — a "brandes.edge_folds" counter of dependency
	// terms folded into edge scores. Instrumentation never alters the
	// scores: they stay bit-identical with Obs on or off, at any worker
	// count.
	Obs *obs.Span
}

// samples resolves the sample count; negative means 0 (exact).
func (o Options) samples() int {
	if o.Samples < 0 {
		return 0
	}
	return o.Samples
}

// sources returns the BFS sources and the per-source scale factor.
// Sampling uses graph.SampleNodeIDs, the shared partial Fisher–Yates draw:
// O(Samples) time and memory, deterministic for a given Seed.
func (o Options) sources(n int) ([]graph.NodeID, float64) {
	s := o.samples()
	if s <= 0 || s >= n {
		return graph.SampleNodeIDs(n, n, 0), 1
	}
	return graph.SampleNodeIDs(n, s, o.Seed), float64(n) / float64(s)
}

// NodeBetweenness returns per-node betweenness centrality (unnormalized,
// with each unordered pair contributing once, as is conventional for
// undirected graphs). It runs on the bit-parallel MS-BFS engine — up to 64
// sources per traversal (Options.Batch), folded through the fixed-shard
// discipline in a canonical per-level order — so the scores are
// bit-identical at any Workers count and any Batch width, and bit-exactly
// pinned by the canonical serial oracle in msbfs_oracle_test.go. The
// canonical summation order differs from the seed's per-source queue
// order, so these scores match the seed oracle only to float tolerance,
// not bit for bit.
func NodeBetweenness(g *graph.Graph, opt Options) []float64 {
	nodes, _ := msbfsBetweenness(g, opt, true, false)
	return nodes
}

// EdgeBetweennessScores returns per-edge betweenness centrality as a flat
// slice aligned with g.Edges(): the score of g.Edges()[i] is element i.
// It is the scorer behind CRR Phase 1; a caller holding an endpoint pair
// finds its element with g.CSR().EdgeIDOf(u, v). Like
// NodeBetweenness it runs on the batched MS-BFS engine: scores are
// bit-identical at any Workers × Batch combination, pinned by the
// canonical serial edge oracle in msbfs_oracle_test.go.
func EdgeBetweennessScores(g *graph.Graph, opt Options) []float64 {
	_, edges := msbfsBetweenness(g, opt, false, true)
	return edges
}

// Betweenness computes node and edge betweenness in a single pass over
// sources — one traversal, one backward sweep and one fold feed both
// accumulators — cheaper than computing them separately. The edge slice is
// aligned with g.Edges(). Both halves carry the engine's bit-determinism
// guarantee at any Workers × Batch.
func Betweenness(g *graph.Graph, opt Options) ([]float64, []float64) {
	return msbfsBetweenness(g, opt, true, true)
}
