// Package msbfs is the bit-parallel multi-source BFS engine behind the
// repository's BFS-shaped kernels (closeness, the distance profile, and
// node and edge betweenness).
//
// A Traversal runs up to 64 sources at once: every node carries one uint64
// word whose bit s means "source s of the current batch has reached this
// node". One shared level-synchronous sweep over the flat CSR arrays then
// advances all sources together — the adjacency is scanned once per level
// for the whole batch instead of once per source, and per-source relaunch
// overhead (re-zeroing O(|V|) state) is paid once per batch. Distances are
// implicit: bit s first appears in node u's word at level d(source s, u),
// so consumers read per-level (node, word) pairs and popcount.
//
// The direction-optimizing switch (Beamer, Asanović & Patterson, SC'12) is
// generalized to batch occupancy: a node counts as unexplored while ANY
// batch bit is still missing from its word, bottom-up passes probe only the
// missing bits and stop at the first neighbor set that covers them, and the
// unvisited list compacts away only fully-saturated nodes. With width 1 the
// engine degenerates to exactly the classic per-source heuristic.
//
// Determinism: which levels each bit appears at is a pure function of the
// graph and the batch (both expansion directions discover the true BFS
// levels), so integer consumers (popcount accumulations) are bit-identical
// at any batch width and worker count by exact arithmetic alone. Float
// consumers (the betweenness dependency fold) additionally need a canonical
// per-level node order; New's canonical flag sorts every level by node id
// ascending so their summation order is a function of the graph and source
// list alone. See DESIGN.md §10.
//
// Meter is the kernels' one observability path: it reports the engine's
// tallies, per-batch histograms and flight markers under the same msbfs.*
// names for every kernel, and costs nothing when observation is off.
package msbfs

import (
	"fmt"
	"slices"

	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// MaxWidth is the largest batch width: one source per bit of the uint64
// visited word.
const MaxWidth = 64

// Direction-optimizing BFS switch thresholds (Beamer, Asanović & Patterson,
// SC'12): go bottom-up when the frontier owns more than 1/bfsAlpha of the
// adjacency slots still owned by unsaturated nodes, return top-down when
// the frontier shrinks below 1/bfsBeta of the nodes. The classic constants
// work well on the low-diameter scale-free graphs the paper evaluates; on
// high-diameter graphs (paths, grids) the frontier never grows enough to
// trigger bottom-up and the traversal degenerates to plain top-down BFS.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// Width clamps a requested batch width to [1, MaxWidth]; 0 or any
// out-of-range request selects MaxWidth, the full word. The width changes
// wall-clock time and scratch memory only — consumer output bits never
// depend on it.
func Width(requested int) int {
	if requested <= 0 || requested > MaxWidth {
		return MaxWidth
	}
	return requested
}

// Stats are the traversal's cumulative tallies across every Run, plain
// local counters the engine always maintains (two integer adds per level,
// nothing per edge) so reading them never perturbs a traversal. A Meter
// folds them into the msbfs.* counters when instrumentation is live.
type Stats struct {
	// Batches is the number of Run calls completed.
	Batches int64
	// TopDownLevels and BottomUpLevels count levels expanded in each
	// direction; Switches counts the flips between them (each Run starts
	// top-down).
	TopDownLevels, BottomUpLevels, Switches int64
	// WordsScanned counts adjacency slots examined: every frontier slot of a
	// top-down level plus every probe a bottom-up level issued before its
	// early exit. It is the engine's unit of traversal work.
	WordsScanned int64
}

// Traversal is the reusable per-worker state of the engine: allocate once
// with New, call Run per batch, and read the discovered levels between
// runs. After the first few runs on a graph the scratch has reached steady
// state and Run allocates nothing. Not safe for concurrent use — parallel
// kernels give each worker its own Traversal.
type Traversal struct {
	c         *graph.CSR
	width     int
	canonical bool

	// visit, front and nxt are the dense per-node bit words: bits that have
	// arrived at any level so far, bits that first arrived at the current
	// level, and bits accumulating for the next level. front and nxt are
	// fully zero between runs; visit holds the last run's reach (read via
	// Visited) and is cleared lazily at the start of the next Run.
	visit, front, nxt []uint64

	// nodes and words record every (node, first-arrival word) pair in level
	// order: level d occupies nodes[levelOff[d]:levelOff[d+1]]. A node
	// appears once per level at which at least one new bit reached it.
	nodes    []graph.NodeID
	words    []uint64
	levelOff []int32

	// frontier and nxtList are the compacted node lists behind front and
	// nxt, swapped every level.
	frontier, nxtList []graph.NodeID

	// unvisited is bottom-up scratch: nodes whose words are not yet
	// saturated, compacted as they fill. Rebuilt lazily per run at the
	// first bottom-up switch.
	unvisited []graph.NodeID

	stats Stats

	// switchMk and slot are set by Meter.Worker: every direction switch is
	// emitted on slot as level<<1|bottomUp. A nil marker (no Meter, or a
	// disabled one) records nothing; either way the traversal is unchanged.
	switchMk *obs.Marker
	slot     int
}

// New returns a Traversal over c running width sources per batch (clamped
// via Width). With canonical set, every level's (node, word) pairs are
// sorted by node id ascending, giving float consumers a summation order
// that depends only on the graph and the source list; integer consumers
// leave it off and skip the sort.
func New(c *graph.CSR, width int, canonical bool) *Traversal {
	n := c.NumNodes()
	return &Traversal{
		c:         c,
		width:     Width(width),
		canonical: canonical,
		visit:     make([]uint64, n),
		front:     make([]uint64, n),
		nxt:       make([]uint64, n),
		nodes:     make([]graph.NodeID, 0, n),
		words:     make([]uint64, 0, n),
		levelOff:  make([]int32, 0, 32),
		frontier:  make([]graph.NodeID, 0, n),
		nxtList:   make([]graph.NodeID, 0, n),
		unvisited: make([]graph.NodeID, 0, n),
	}
}

// Width returns the traversal's configured batch width.
func (t *Traversal) Width() int { return t.width }

// Stats returns the cumulative tallies across every Run so far.
func (t *Traversal) Stats() Stats { return t.stats }

// NumLevels returns the number of BFS levels the last Run discovered,
// counting level 0 (the sources themselves). Zero before the first Run.
func (t *Traversal) NumLevels() int {
	if len(t.levelOff) == 0 {
		return 0
	}
	return len(t.levelOff) - 1
}

// Level returns the nodes first reached at distance d by the last Run,
// paired index-for-index with the batch bits that arrived there. Both
// slices alias the traversal's scratch: read them before the next Run.
func (t *Traversal) Level(d int) ([]graph.NodeID, []uint64) {
	lo, hi := t.levelOff[d], t.levelOff[d+1]
	return t.nodes[lo:hi], t.words[lo:hi]
}

// Visited returns the batch bits that reached node u in the last Run.
func (t *Traversal) Visited(u graph.NodeID) uint64 { return t.visit[u] }

// Visit returns the dense per-node reach words of the last Run: element u
// holds the batch bits that reached node u (Visit()[u] == Visited(u)).
// Consumers that sweep every node or every CSR slot — the batched Brandes
// edge fold — read the slice directly instead of paying a method call per
// slot. The slice aliases the traversal's scratch: read it before the next
// Run, and do not write through it.
func (t *Traversal) Visit() []uint64 { return t.visit }

// Run traverses one batch: source srcs[i] travels as bit i. The batch may
// be ragged (shorter than the configured width, as a source list's tail
// batch is) but never longer. Duplicate source nodes are legal — their
// bits simply travel together. Levels from the previous Run are discarded.
func (t *Traversal) Run(srcs []graph.NodeID) {
	if len(srcs) == 0 || len(srcs) > t.width {
		panic(fmt.Sprintf("msbfs: batch of %d sources outside [1, %d]", len(srcs), t.width))
	}
	// Lazily clear the previous run's reach: only entries that run touched.
	for _, u := range t.nodes {
		t.visit[u] = 0
	}
	t.nodes = t.nodes[:0]
	t.words = t.words[:0]
	t.levelOff = append(t.levelOff[:0], 0)
	t.frontier = t.frontier[:0]
	t.nxtList = t.nxtList[:0]

	c := t.c
	offsets, targets := c.Offsets, c.Targets
	visit, front, nxt := t.visit, t.front, t.nxt
	n := c.NumNodes()
	// full is the saturation mask of this (possibly ragged) batch.
	full := ^uint64(0) >> (64 - uint(len(srcs)))

	// remSlots counts adjacency slots owned by unsaturated nodes — the
	// batch-occupancy generalization of "slots owned by unvisited nodes".
	remSlots := int64(c.NumSlots())

	// Seed level 0 through the ordinary accumulate-finalize path so
	// duplicate sources merge and canonical sorting applies.
	for i, s := range srcs {
		if nxt[s] == 0 {
			t.nxtList = append(t.nxtList, s)
		}
		nxt[s] |= uint64(1) << uint(i)
	}
	scoutSlots := t.finalize(full, &remSlots)

	bottomUp := false
	haveUnvisited := false
	for len(t.frontier) > 0 {
		if !bottomUp {
			if scoutSlots > remSlots/bfsAlpha {
				bottomUp = true
				t.switchTo(1)
			}
		} else if len(t.frontier) < n/bfsBeta {
			bottomUp = false
			t.switchTo(0)
		}
		if bottomUp {
			t.stats.BottomUpLevels++
			// Bottom-up: every unsaturated node probes its adjacency for
			// the bits it is missing, stopping as soon as the probes cover
			// them all. Bits claimed earlier in this same pass live in nxt,
			// not front, so the scan order within the level is irrelevant
			// to the outcome. The unvisited list is compacted in place so
			// later levels only scan survivors; nodes saturated by
			// intervening top-down levels fall out at the next compaction.
			var scanned int64
			if !haveUnvisited {
				// First bottom-up level of this run: scan every node
				// directly and collect the survivors as the unvisited list,
				// so no separate build pass is needed.
				live := t.unvisited[:0]
				for u := graph.NodeID(0); u < graph.NodeID(n); u++ {
					miss := full &^ visit[u]
					if miss == 0 {
						continue
					}
					var add uint64
					nbrs := targets[offsets[u]:offsets[u+1]]
					k := 0
					for ; k < len(nbrs); k++ {
						add |= front[nbrs[k]] & miss
						if add == miss {
							k++
							break
						}
					}
					scanned += int64(k)
					if add != 0 {
						nxt[u] = add
						t.nxtList = append(t.nxtList, u)
					}
					if visit[u]|add != full {
						live = append(live, u)
					}
				}
				t.unvisited = live
				haveUnvisited = true
			} else {
				live := t.unvisited[:0]
				for _, u := range t.unvisited {
					miss := full &^ visit[u]
					if miss == 0 {
						continue
					}
					var add uint64
					nbrs := targets[offsets[u]:offsets[u+1]]
					k := 0
					for ; k < len(nbrs); k++ {
						add |= front[nbrs[k]] & miss
						if add == miss {
							k++
							break
						}
					}
					scanned += int64(k)
					if add != 0 {
						nxt[u] = add
						t.nxtList = append(t.nxtList, u)
					}
					if visit[u]|add != full {
						live = append(live, u)
					}
				}
				t.unvisited = live
			}
			t.stats.WordsScanned += scanned
		} else {
			t.stats.TopDownLevels++
			t.stats.WordsScanned += scoutSlots
			for _, v := range t.frontier {
				wv := front[v]
				for _, nb := range targets[offsets[v]:offsets[v+1]] {
					if add := wv &^ visit[nb]; add != 0 {
						if nxt[nb] == 0 {
							t.nxtList = append(t.nxtList, nb)
						}
						nxt[nb] |= add
					}
				}
			}
		}
		scoutSlots = t.finalize(full, &remSlots)
	}
	t.stats.Batches++
}

// switchTo tallies a direction switch before the level about to be
// expanded, dir 1 for bottom-up and 0 for top-down, and emits it to the
// flight recorder when a Meter attached one.
func (t *Traversal) switchTo(dir int64) {
	t.stats.Switches++
	t.switchMk.Emit(t.slot, int64(len(t.levelOff)-1)<<1|dir)
}

// finalize installs the accumulated next frontier as the current one: it
// clears the old front words, commits nxt into visit and the level storage
// (sorted by node id first when canonical), swaps the node lists, and
// returns the new frontier's adjacency slot count for the direction
// heuristic. An empty next frontier records no level, leaving every dense
// word zeroed for the next Run.
func (t *Traversal) finalize(full uint64, remSlots *int64) int64 {
	offsets := t.c.Offsets
	for _, v := range t.frontier {
		t.front[v] = 0
	}
	if t.canonical {
		slices.Sort(t.nxtList)
	}
	var scout int64
	for _, u := range t.nxtList {
		w := t.nxt[u]
		t.nxt[u] = 0
		t.front[u] = w
		t.visit[u] |= w
		t.nodes = append(t.nodes, u)
		t.words = append(t.words, w)
		deg := int64(offsets[u+1] - offsets[u])
		if t.visit[u] == full {
			*remSlots -= deg
		}
		scout += deg
	}
	if len(t.nxtList) > 0 {
		t.levelOff = append(t.levelOff, int32(len(t.nodes)))
	}
	t.frontier, t.nxtList = t.nxtList, t.frontier[:0]
	return scout
}
