package analysis

import (
	"math/bits"

	"edgeshed/internal/graph"
	"edgeshed/internal/msbfs"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// DistanceProfile summarizes the shortest-path structure of a graph: the
// distribution of pairwise distances (Figure 7) and the hop-plot (Figure
// 10), computed in one pass of BFS traversals.
type DistanceProfile struct {
	// DistCounts[d] is the number of ordered reachable (s, t) pairs, s != t,
	// at distance d (or the sampling-scaled estimate thereof).
	DistCounts []float64
	// ReachablePairs is the total ordered reachable pair count.
	ReachablePairs float64
	// Sources is how many BFS sources were used.
	Sources int
	// Diameter is the largest distance observed.
	Diameter int
}

// ProfileOptions configures NewDistanceProfile.
type ProfileOptions struct {
	// Sources caps the number of BFS sources; 0 (or >= |V|) means exact
	// all-sources computation, and a negative value is likewise treated as
	// 0. Sampled profiles estimate the full pair counts by scaling with
	// |V|/Sources.
	Sources int
	// Seed drives source sampling.
	Seed int64
	// Workers is the parallelism across MS-BFS batches; 0 (or negative)
	// means GOMAXPROCS. Batches are strided statically over workers and the
	// per-distance pair counts accumulate as integers, merged exactly and
	// scaled once at the end — so the profile is bit-identical at any
	// worker count.
	Workers int
	// Batch is the MS-BFS batch width: how many sources share one
	// traversal, one bit of the per-node word each. 0 or any out-of-range
	// value selects the full 64-bit word. The width changes wall-clock time
	// only — the profile is bit-identical at any Batch.
	Batch int
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, the kernel reports a "distance_profile"
	// span with per-worker busy time, a "bfs.sources_done" counter and the
	// MS-BFS engine's msbfs.* counters and histograms. The profile stays
	// bit-identical with Obs on or off, at any worker count.
	Obs *obs.Span
}

// sources resolves the BFS source set and the pair-count scale factor.
// Sampling uses the shared O(Sources) partial Fisher–Yates draw.
func (o ProfileOptions) sources(n int) ([]graph.NodeID, float64) {
	if o.Sources > 0 && o.Sources < n {
		return graph.SampleNodeIDs(n, o.Sources, o.Seed), float64(n) / float64(o.Sources)
	}
	return graph.SampleNodeIDs(n, n, 0), 1
}

// NewDistanceProfile computes the distance profile of g on the bit-parallel
// MS-BFS engine: sources are grouped into batches of up to 64 (Batch bits
// of one uint64 word per node), every batch runs one shared
// direction-optimizing traversal, and each level's (source, target) pair
// count is the popcount of its arrival words. Batches stride statically
// across workers; the per-worker integer counts merge exactly and are
// scaled by |V|/Sources once at the end, so the profile is bit-identical at
// any Workers count and any Batch width.
func NewDistanceProfile(g *graph.Graph, opt ProfileOptions) *DistanceProfile {
	n := g.NumNodes()
	srcs, scale := opt.sources(n)
	p := &DistanceProfile{Sources: len(srcs)}
	if len(srcs) == 0 {
		return p
	}
	c := g.CSR()
	width := msbfs.Width(opt.Batch)
	numBatches := (len(srcs) + width - 1) / width
	workers := par.Workers(opt.Workers, numBatches)
	sp := opt.Obs.Start("distance_profile")
	defer sp.End()
	sp.SetTotal(int64(numBatches))
	srcCtr := sp.Counter("bfs.sources_done")
	meter := msbfs.NewMeter(sp, "distance_profile")
	type wstate struct {
		counts   []int64
		pairs    int64
		diameter int
	}
	states := make([]wstate, workers)
	par.Run(workers, func(w int) {
		tr := msbfs.New(c, width, false)
		wm := meter.Worker(w, tr)
		var st wstate
		var done int64
		for bi := w; bi < numBatches; bi += workers {
			lo := bi * width
			hi := min(lo+width, len(srcs))
			tr.Run(srcs[lo:hi])
			for d := 1; d < tr.NumLevels(); d++ {
				_, words := tr.Level(d)
				var cnt int64
				for _, wd := range words {
					cnt += int64(bits.OnesCount64(wd))
				}
				for d >= len(st.counts) {
					st.counts = append(st.counts, 0)
				}
				st.counts[d] += cnt
				st.pairs += cnt
				if d > st.diameter {
					st.diameter = d
				}
			}
			wm.Batch(hi - lo)
			done += int64(hi - lo)
			sp.Done(1)
		}
		states[w] = st
		srcCtr.AddAt(w, done)
		wm.End()
	})
	var counts []int64
	var pairs int64
	for _, st := range states {
		for d, cnt := range st.counts {
			for d >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d] += cnt
		}
		pairs += st.pairs
		if st.diameter > p.Diameter {
			p.Diameter = st.diameter
		}
	}
	p.DistCounts = make([]float64, len(counts))
	for d, cnt := range counts {
		p.DistCounts[d] = float64(cnt) * scale
	}
	p.ReachablePairs = float64(pairs) * scale
	return p
}

// Distribution returns the fraction of reachable pairs at each distance
// (index = distance, starting at 0 with value 0), the series of Figure 7.
func (p *DistanceProfile) Distribution() []float64 {
	out := make([]float64, len(p.DistCounts))
	if p.ReachablePairs == 0 {
		return out
	}
	for d, c := range p.DistCounts {
		out[d] = c / p.ReachablePairs
	}
	return out
}

// HopPlot returns the cumulative fraction of reachable pairs within each
// hop count k (index = k), the series of Figure 10: HopPlot()[k] is the
// percentage of reachable pairs at distance <= k.
func (p *DistanceProfile) HopPlot() []float64 {
	out := make([]float64, len(p.DistCounts))
	if p.ReachablePairs == 0 {
		return out
	}
	cum := 0.0
	for d, c := range p.DistCounts {
		cum += c
		out[d] = cum / p.ReachablePairs
	}
	return out
}

// MeanDistance returns the average pairwise distance among reachable pairs.
func (p *DistanceProfile) MeanDistance() float64 {
	if p.ReachablePairs == 0 {
		return 0
	}
	var sum float64
	for d, c := range p.DistCounts {
		sum += float64(d) * c
	}
	return sum / p.ReachablePairs
}
