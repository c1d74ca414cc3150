package analysis

// This file preserves the per-source direction-optimizing BFS kernel
// (levelBFS, the PR-2 production path that internal/msbfs replaced) as a
// test oracle and as the PerSource side of the PerSource/MSBFS benchmark
// pairs. The MS-BFS profile
// counts the same integer pairs per distance, so comparisons are bit-exact.

import (
	"edgeshed/internal/graph"
)

// Per-source direction-optimizing BFS switch thresholds (Beamer, Asanović &
// Patterson, SC'12), as the replaced kernel used them; internal/msbfs keeps
// the same constants for its batch-occupancy generalization.
const (
	perSourceAlpha = 14
	perSourceBeta  = 24
)

// levelBFS is per-worker scratch for level-synchronous BFS traversals. It is
// reused across sources: allocate once per worker, call run per source. All
// bookkeeping is integer, so pair counts derived from it are exact and any
// merge order across workers yields the same bits.
type levelBFS struct {
	dist []int32 // -1 = unvisited; reset lazily via order
	// order holds visited nodes in level order: level d occupies
	// order[levelStart[d] : levelStart[d+1]] during a run.
	order []graph.NodeID
	// unvisited is bottom-up scratch: the ids not yet claimed, compacted as
	// levels claim them, so each bottom-up pass scans survivors instead of
	// all n nodes. Rebuilt lazily per run at the first bottom-up switch.
	unvisited []int32
	// counts[d] accumulates, across every source this worker has processed,
	// the number of nodes first reached at distance d >= 1.
	counts []int64
	// pairs accumulates the total reachable ordered pair count.
	pairs int64
	// diameter is the largest distance observed by this worker.
	diameter int
	// topDown, bottomUp and switches count levels expanded in each direction
	// and the flips between them (each traversal starts top-down).
	topDown, bottomUp, switches int64
}

// newLevelBFS returns scratch sized for an n-node graph.
func newLevelBFS(n int) *levelBFS {
	st := &levelBFS{
		dist:  make([]int32, n),
		order: make([]graph.NodeID, 0, n),
	}
	for i := range st.dist {
		st.dist[i] = -1
	}
	return st
}

// run performs one direction-optimizing BFS from src over the CSR view,
// folding the per-level visit counts into st.counts/st.pairs/st.diameter.
func (st *levelBFS) run(c *graph.CSR, src graph.NodeID) {
	offsets, targets := c.Offsets, c.Targets
	dist := st.dist
	order := st.order[:0]
	n := c.NumNodes()

	dist[src] = 0
	order = append(order, src)
	// remSlots counts adjacency slots owned by still-unvisited nodes;
	// scoutSlots counts slots owned by the current frontier.
	remSlots := int64(c.NumSlots())
	scoutSlots := int64(offsets[src+1] - offsets[src])
	remSlots -= scoutSlots

	frontStart := 0
	bottomUp := false
	haveUnvisited := false
	for d := int32(1); frontStart < len(order); d++ {
		frontEnd := len(order)
		frontier := order[frontStart:frontEnd]
		// Direction choice for this level.
		if !bottomUp {
			if scoutSlots > remSlots/perSourceAlpha {
				bottomUp = true
				st.switches++
			}
		} else if len(frontier) < n/perSourceBeta {
			bottomUp = false
			st.switches++
		}
		if bottomUp {
			st.bottomUp++
			prev := d - 1
			if !haveUnvisited {
				live := st.unvisited[:0]
				for u := int32(0); u < int32(n); u++ {
					if dist[u] >= 0 {
						continue
					}
					claimed := false
					for _, w := range targets[offsets[u]:offsets[u+1]] {
						if dist[w] == prev {
							dist[u] = d
							order = append(order, graph.NodeID(u))
							claimed = true
							break
						}
					}
					if !claimed {
						live = append(live, u)
					}
				}
				st.unvisited = live
				haveUnvisited = true
			} else {
				live := st.unvisited[:0]
				for _, u := range st.unvisited {
					if dist[u] >= 0 {
						continue
					}
					claimed := false
					for _, w := range targets[offsets[u]:offsets[u+1]] {
						if dist[w] == prev {
							dist[u] = d
							order = append(order, graph.NodeID(u))
							claimed = true
							break
						}
					}
					if !claimed {
						live = append(live, u)
					}
				}
				st.unvisited = live
			}
		} else {
			st.topDown++
			for _, v := range frontier {
				for _, w := range targets[offsets[v]:offsets[v+1]] {
					if dist[w] < 0 {
						dist[w] = d
						order = append(order, w)
					}
				}
			}
		}
		level := order[frontEnd:]
		if len(level) > 0 {
			scoutSlots = 0
			for _, v := range level {
				scoutSlots += int64(offsets[v+1] - offsets[v])
			}
			remSlots -= scoutSlots
			for int(d) >= len(st.counts) {
				st.counts = append(st.counts, 0)
			}
			st.counts[d] += int64(len(level))
			st.pairs += int64(len(level))
			if int(d) > st.diameter {
				st.diameter = int(d)
			}
		}
		frontStart = frontEnd
	}
	// Reset only the entries this traversal touched.
	for _, v := range order {
		dist[v] = -1
	}
	st.order = order
}

// perSourceDistanceProfile is the replaced production driver: one
// direction-optimizing BFS per source, serially. It is the PerSource half
// of the DistanceProfile PerSource/MSBFS benchmark pair and an additional
// bit-exact oracle for the MS-BFS profile.
func perSourceDistanceProfile(g *graph.Graph, opt ProfileOptions) *DistanceProfile {
	n := g.NumNodes()
	srcs, scale := opt.sources(n)
	p := &DistanceProfile{Sources: len(srcs)}
	if len(srcs) == 0 {
		return p
	}
	c := g.CSR()
	st := newLevelBFS(n)
	for _, s := range srcs {
		st.run(c, s)
	}
	p.Diameter = st.diameter
	p.DistCounts = make([]float64, len(st.counts))
	for d, cnt := range st.counts {
		p.DistCounts[d] = float64(cnt) * scale
	}
	p.ReachablePairs = float64(st.pairs) * scale
	return p
}
