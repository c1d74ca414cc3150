package centrality

import (
	"math/bits"

	"edgeshed/internal/graph"
	"edgeshed/internal/msbfs"
	"edgeshed/internal/par"
)

// Closeness returns each node's closeness centrality in the Wasserman–Faust
// normalization for disconnected graphs:
//
//	C(u) = ((r-1)/(n-1)) · ((r-1) / Σ_{v reachable} d(u, v))
//
// where r is the size of u's reachable set. Isolated nodes score 0.
//
// The computation runs the bit-parallel MS-BFS engine over pivot sources:
// every traversal carries up to 64 sources (Options.Batch bits wide), and
// each level's arrivals fold into per-TARGET reach counts and distance sums
// by popcount — undirected distances are symmetric, so d(pivot, u) counted
// at u estimates u's own outgoing sum. With Samples == 0 (or >= |V|) every
// node is a pivot and the counts are exact, reproducing the per-source
// formula bit for bit. With 0 < Samples < |V|, Samples pivots are drawn by
// the shared partial Fisher–Yates sampler (Seed) and u's reach and distance
// sum are scaled by |V|/Samples before normalizing, so cost drops from
// O(|V|·|E|) to O(Samples·|E|/64)-ish traversal work at the price of
// estimator variance; nodes no pivot reaches score 0.
//
// All accumulation is integer (exact in any order), so the scores are
// bit-identical at any Workers count and any Batch width. Obs — when set —
// reports a "closeness" span with per-worker busy time, batch unit
// progress, a "closeness.sources_done" counter and the engine's msbfs.*
// counters.
func Closeness(g *graph.Graph, opt Options) []float64 {
	n := g.NumNodes()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	srcs, scale := opt.sources(n)
	c := g.CSR()
	width := msbfs.Width(opt.Batch)
	numBatches := (len(srcs) + width - 1) / width
	workers := par.Workers(opt.Workers, numBatches)
	sp := opt.Obs.Start("closeness")
	defer sp.End()
	sp.SetTotal(int64(numBatches))
	srcCtr := sp.Counter("closeness.sources_done")
	meter := msbfs.NewMeter(sp, "closeness")
	// Per-worker partial reach counts and distance sums per target node;
	// integer, so the merge below is exact in any order.
	type partial struct {
		cnt, sum []int64
	}
	parts := make([]partial, workers)
	par.Run(workers, func(w int) {
		tr := msbfs.New(c, width, false)
		wm := meter.Worker(w, tr)
		cnt := make([]int64, n)
		sum := make([]int64, n)
		var done int64
		for bi := w; bi < numBatches; bi += workers {
			lo := bi * width
			hi := min(lo+width, len(srcs))
			tr.Run(srcs[lo:hi])
			// Level 0 contributes reach (each pivot counts itself) at
			// distance 0; deeper levels contribute reach and distance.
			nodes0, words0 := tr.Level(0)
			for i, u := range nodes0 {
				cnt[u] += int64(bits.OnesCount64(words0[i]))
			}
			for d := 1; d < tr.NumLevels(); d++ {
				nodes, words := tr.Level(d)
				dd := int64(d)
				for i, u := range nodes {
					pc := int64(bits.OnesCount64(words[i]))
					cnt[u] += pc
					sum[u] += dd * pc
				}
			}
			wm.Batch(hi - lo)
			done += int64(hi - lo)
			sp.Done(1)
		}
		parts[w] = partial{cnt: cnt, sum: sum}
		srcCtr.AddAt(w, done)
		wm.End()
	})
	cnt, sum := parts[0].cnt, parts[0].sum
	for _, p := range parts[1:] {
		for u := range cnt {
			cnt[u] += p.cnt[u]
			sum[u] += p.sum[u]
		}
	}
	nm1 := float64(n - 1)
	if scale == 1 {
		// Exact: cnt[u] is r(u) and sum[u] the true distance sum, so this is
		// the per-source formula on the same integers — bit-identical.
		for u := range scores {
			r, s := cnt[u], sum[u]
			if r > 1 && s > 0 {
				rm1 := float64(r - 1)
				scores[u] = (rm1 / nm1) * (rm1 / float64(s))
			}
		}
	} else {
		// Sampled: estimate r(u) and the distance sum by the |V|/Samples
		// scale before normalizing.
		for u := range scores {
			s := sum[u]
			if s <= 0 {
				continue
			}
			rm1 := float64(cnt[u])*scale - 1
			if rm1 > 0 {
				scores[u] = (rm1 / nm1) * (rm1 / (float64(s) * scale))
			}
		}
	}
	return scores
}

// Degree returns degree centrality: deg(u)/(n-1), the cheapest importance
// measure (used by simplification-based reducers like OntoVis, paper
// reference [11]).
func Degree(g *graph.Graph) []float64 {
	n := g.NumNodes()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	for u := 0; u < n; u++ {
		scores[u] = float64(g.Degree(graph.NodeID(u))) / float64(n-1)
	}
	return scores
}
