// Package stream extends the paper's degree-preserving edge shedding to
// edge streams, the setting of its related work on graph stream
// summarization (TCM, GSS — references [15], [16]). A Shedder consumes edge
// insertions one at a time and maintains a reduced edge set of size
// [p·m] (m = edges seen so far) that tracks the expected degrees p·deg(u),
// using only O(|E'| + |V|) memory: shed edges are forgotten, which is the
// point of shedding under resource constraints.
//
// The policy is a streaming analogue of CRR's Phase 2: grow with the stream
// while below budget, and otherwise consider swapping the incoming edge
// against a small random sample of kept edges, accepting the swap that most
// reduces the degree discrepancy Δ.
package stream

import (
	"fmt"
	"math"
	"math/rand"

	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// Shedder incrementally sheds a stream of edge insertions.
type Shedder struct {
	p          float64
	rng        *rand.Rand
	candidates int

	seen    int64 // edges observed
	origDeg []int64
	keptDeg []int32
	kept    []graph.Edge

	// Kept-edge positions are looked up in two tiers. Edges of the optional
	// base graph resolve through its CSR view to a canonical edge id and
	// index the flat basePos array (-1 = not kept); only edges the base has
	// never seen — truly novel stream edges — fall back to hashing into the
	// map. On replayed or mostly-known streams the hot path never hashes a
	// graph.Edge.
	base    *graph.CSR
	basePos []int32
	index   map[graph.Edge]int32 // novel kept edge -> position in kept

	// Counter handles, resolved once at construction. All nil when
	// Options.Obs is nil: every Add through a nil handle is a free no-op,
	// so unobserved streams pay one predictable branch per event.
	insCtr   *obs.Counter
	novelCtr *obs.Counter
	swapCtr  *obs.Counter
	delCtr   *obs.Counter

	// Quality probes, folded once per StreamEpoch inserts (DESIGN.md §12):
	// the hot path only bumps the two plain epoch tallies, and the O(|V|)
	// Delta scan runs at epoch cadence only. Nil without Options.Obs.
	qSwap      *obs.Probe
	qDelta     *obs.Probe
	qKept      *obs.Probe
	epochIns   int
	epochSwaps int
}

// Options configures a Shedder.
type Options struct {
	// P is the edge preservation ratio in (0, 1).
	P float64
	// Candidates is how many random kept edges are examined per eviction
	// decision; 0 means 8. Larger values trade throughput for quality.
	Candidates int
	// Seed drives candidate sampling.
	Seed int64
	// Nodes pre-sizes per-node state; the shedder grows on demand if node
	// ids exceed it.
	Nodes int
	// Base optionally declares a graph whose edges the stream is expected to
	// (mostly) draw from — the natural case when replaying a stored graph as
	// a stream. Base-graph edges then track their kept position in a flat
	// array indexed by canonical edge id instead of a map; the stream may
	// still contain arbitrary novel edges, which use the map as before.
	// Setting Base never changes the shedder's output, only its speed.
	Base *graph.Graph
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, the shedder tallies "stream.inserts",
	// "stream.novel_kept" (kept edges the base graph never saw),
	// "stream.swaps_accepted" and "stream.deletes", and folds the
	// "stream.epoch.*" quality probes every StreamEpoch insertions. The
	// kept edge set stays bit-identical with Obs on or off: counting never
	// touches the rng (pinned by TestShedderBitIdenticalWithObs).
	Obs *obs.Span
}

// NewShedder returns a shedder maintaining a [p·m]-edge reduction.
func NewShedder(opt Options) (*Shedder, error) {
	if math.IsNaN(opt.P) || opt.P <= 0 || opt.P >= 1 {
		return nil, fmt.Errorf("stream: edge preservation ratio p = %v outside (0, 1)", opt.P)
	}
	cand := opt.Candidates
	if cand <= 0 {
		cand = 8
	}
	n := opt.Nodes
	if n < 0 {
		n = 0
	}
	if opt.Base != nil && opt.Base.NumNodes() > n {
		n = opt.Base.NumNodes()
	}
	s := &Shedder{
		p:          opt.P,
		rng:        rand.New(rand.NewSource(opt.Seed)),
		candidates: cand,
		origDeg:    make([]int64, n),
		keptDeg:    make([]int32, n),
		index:      make(map[graph.Edge]int32),
	}
	if opt.Base != nil {
		s.base = opt.Base.CSR()
		s.basePos = make([]int32, opt.Base.NumEdges())
		for i := range s.basePos {
			s.basePos[i] = -1
		}
	}
	if opt.Obs.Enabled() {
		s.insCtr = opt.Obs.Counter("stream.inserts")
		s.novelCtr = opt.Obs.Counter("stream.novel_kept")
		s.swapCtr = opt.Obs.Counter("stream.swaps_accepted")
		s.delCtr = opt.Obs.Counter("stream.deletes")
		s.qSwap = opt.Obs.Quality("stream.epoch.swap_rate")
		s.qDelta = opt.Obs.Quality("stream.epoch.delta")
		s.qKept = opt.Obs.Quality("stream.epoch.kept_fraction")
	}
	return s, nil
}

// StreamEpoch is how many insertions pass between quality-probe folds: the
// per-epoch swap rate, the exact Δ (an O(|V|) scan, invisible at this
// cadence) and the kept fraction. Exported so tests and callers can size
// streams to hit epoch boundaries.
const StreamEpoch = 1 << 14

// foldEpoch records the epoch's quality stats and resets the tallies.
// Called only when probes are live; reads shedder state, never mutates
// anything the swap policy consumes, so the kept set stays bit-identical
// with observation on or off.
func (s *Shedder) foldEpoch() {
	s.qSwap.Record(s.p, float64(s.epochSwaps)/float64(s.epochIns))
	s.qDelta.Record(s.p, s.Delta())
	frac := 0.0
	if s.seen > 0 {
		frac = float64(len(s.kept)) / float64(s.seen)
	}
	s.qKept.Record(s.p, frac)
	s.epochIns, s.epochSwaps = 0, 0
}

// lookup returns the kept position of e, resolving base-graph edges through
// the flat basePos array and novel edges through the map.
func (s *Shedder) lookup(e graph.Edge) (int32, bool) {
	if s.base != nil {
		if id := s.base.EdgeIDOf(e.U, e.V); id >= 0 {
			pos := s.basePos[id]
			return pos, pos >= 0
		}
	}
	i, ok := s.index[e]
	return i, ok
}

// setPos records e's position in the kept slice.
func (s *Shedder) setPos(e graph.Edge, pos int32) {
	if s.base != nil {
		if id := s.base.EdgeIDOf(e.U, e.V); id >= 0 {
			s.basePos[id] = pos
			return
		}
	}
	s.index[e] = pos
}

// delPos forgets e's position.
func (s *Shedder) delPos(e graph.Edge) {
	if s.base != nil {
		if id := s.base.EdgeIDOf(e.U, e.V); id >= 0 {
			s.basePos[id] = -1
			return
		}
	}
	delete(s.index, e)
}

// grow ensures per-node state covers node u.
func (s *Shedder) grow(u graph.NodeID) {
	for int(u) >= len(s.origDeg) {
		s.origDeg = append(s.origDeg, 0)
		s.keptDeg = append(s.keptDeg, 0)
	}
}

// dis returns the current degree discrepancy of node u.
func (s *Shedder) dis(u graph.NodeID) float64 {
	return float64(s.keptDeg[u]) - s.p*float64(s.origDeg[u])
}

// addGain returns the Δ change of incrementing u's kept degree.
func (s *Shedder) addGain(u graph.NodeID) float64 {
	d := s.dis(u)
	return math.Abs(d+1) - math.Abs(d)
}

// dropGain returns the Δ change of decrementing u's kept degree.
func (s *Shedder) dropGain(u graph.NodeID) float64 {
	d := s.dis(u)
	return math.Abs(d-1) - math.Abs(d)
}

// target returns the current edge budget [p·m].
func (s *Shedder) target() int {
	return int(math.Round(s.p * float64(s.seen)))
}

// Insert processes one stream edge. Self-loops and duplicates of
// currently-kept edges are counted toward m but never stored twice; the
// shedder has no memory of shed edges, so a re-inserted shed edge is a new
// observation (consistent with multigraph-style streams).
func (s *Shedder) Insert(u, v graph.NodeID) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("stream: negative node id (%d, %d)", u, v)
	}
	if u == v {
		return fmt.Errorf("stream: self-loop at node %d", u)
	}
	s.grow(u)
	s.grow(v)
	e := graph.Edge{U: u, V: v}.Canonical()
	s.seen++
	s.origDeg[u]++
	s.origDeg[v]++
	s.insCtr.Add(1)
	_, alreadyKept := s.lookup(e)

	// Phase 1: grow toward the budget.
	if len(s.kept) < s.target() && !alreadyKept {
		s.keep(e)
	} else if !alreadyKept {
		// Phase 2: at budget — swap in the new edge if evicting the best of
		// a few random kept edges reduces Δ.
		s.maybeSwap(e)
	}
	// Shrinkage never happens (the target is non-decreasing in m), but the
	// budget can lag one edge behind after rounding; nothing to do.
	if s.qSwap != nil {
		s.epochIns++
		if s.epochIns == StreamEpoch {
			s.foldEpoch()
		}
	}
	return nil
}

// keep stores edge e. The novel-edge tally lives here — not in setPos, which
// evict also calls while repositioning — so each kept edge counts once.
func (s *Shedder) keep(e graph.Edge) {
	if s.novelCtr != nil && (s.base == nil || s.base.EdgeIDOf(e.U, e.V) < 0) {
		s.novelCtr.Add(1)
	}
	s.setPos(e, int32(len(s.kept)))
	s.kept = append(s.kept, e)
	s.keptDeg[e.U]++
	s.keptDeg[e.V]++
}

// evict removes the kept edge at position i by swap-remove.
func (s *Shedder) evict(i int32) {
	e := s.kept[i]
	last := int32(len(s.kept) - 1)
	if i != last {
		s.kept[i] = s.kept[last]
		s.setPos(s.kept[i], i)
	}
	s.kept = s.kept[:last]
	s.delPos(e)
	s.keptDeg[e.U]--
	s.keptDeg[e.V]--
}

// maybeSwap evaluates swapping the incoming edge against sampled kept edges.
func (s *Shedder) maybeSwap(e graph.Edge) {
	if len(s.kept) == 0 {
		return
	}
	addD := s.addGain(e.U) + s.addGain(e.V)
	bestIdx := int32(-1)
	bestD := 0.0
	for c := 0; c < s.candidates; c++ {
		i := int32(s.rng.Intn(len(s.kept)))
		old := s.kept[i]
		// Exact combined change, handling shared endpoints: drop old, add e.
		d := s.swapDelta(old, e, addD)
		if d < bestD {
			bestD = d
			bestIdx = i
		}
	}
	if bestIdx >= 0 {
		s.evict(bestIdx)
		s.keep(e)
		s.swapCtr.Add(1)
		if s.qSwap != nil {
			s.epochSwaps++
		}
	}
}

// swapDelta returns the Δ change of evicting old and keeping e. addD is the
// precomputed independent add gain, used when the edges share no endpoint.
func (s *Shedder) swapDelta(old, e graph.Edge, addD float64) float64 {
	if old.U != e.U && old.U != e.V && old.V != e.U && old.V != e.V {
		return addD + s.dropGain(old.U) + s.dropGain(old.V)
	}
	// Shared endpoint: evaluate the net ±1 shifts exactly.
	nodes := [4]graph.NodeID{old.U, old.V, e.U, e.V}
	deltas := [4]int{-1, -1, 1, 1}
	for i := 2; i < 4; i++ {
		for j := 0; j < i; j++ {
			if nodes[i] == nodes[j] && deltas[i] != 0 {
				deltas[j] += deltas[i]
				deltas[i] = 0
			}
		}
	}
	var d float64
	for i, u := range nodes {
		if deltas[i] == 0 {
			continue
		}
		du := s.dis(u)
		d += math.Abs(du+float64(deltas[i])) - math.Abs(du)
	}
	return d
}

// Delete processes one stream edge deletion (a turnstile stream). The
// caller is responsible for only deleting edges previously inserted: the
// shedder has no memory of shed edges, so it can verify existence only for
// currently-kept edges. If the deleted edge is kept it is evicted; if the
// shrunken budget now exceeds the kept count nothing can be done (shed
// edges are gone — the price of bounded memory), so the kept set is allowed
// to run below target until the stream grows again.
func (s *Shedder) Delete(u, v graph.NodeID) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("stream: negative node id (%d, %d)", u, v)
	}
	if u == v {
		return fmt.Errorf("stream: self-loop at node %d", u)
	}
	if int(u) >= len(s.origDeg) || int(v) >= len(s.origDeg) ||
		s.origDeg[u] == 0 || s.origDeg[v] == 0 || s.seen == 0 {
		return fmt.Errorf("stream: deleting edge (%d,%d) never observed", u, v)
	}
	e := graph.Edge{U: u, V: v}.Canonical()
	s.seen--
	s.origDeg[u]--
	s.origDeg[v]--
	s.delCtr.Add(1)
	if i, ok := s.lookup(e); ok {
		s.evict(i)
	}
	// Over-budget after shrink: drop the eviction that most improves Δ
	// among sampled candidates (exact when the overshoot is small).
	for len(s.kept) > s.target() {
		bestIdx := int32(0)
		bestD := math.Inf(1)
		for c := 0; c < s.candidates && c < len(s.kept); c++ {
			i := int32(s.rng.Intn(len(s.kept)))
			old := s.kept[i]
			if d := s.dropGain(old.U) + s.dropGain(old.V); d < bestD {
				bestD = d
				bestIdx = i
			}
		}
		s.evict(bestIdx)
	}
	return nil
}

// Seen returns the number of stream edges observed.
func (s *Shedder) Seen() int64 { return s.seen }

// Kept returns the current reduced edge count.
func (s *Shedder) Kept() int { return len(s.kept) }

// Delta returns the current total degree discrepancy Σ_u |dis(u)|.
func (s *Shedder) Delta() float64 {
	var sum float64
	for u := range s.origDeg {
		if s.origDeg[u] > 0 || s.keptDeg[u] > 0 {
			sum += math.Abs(s.dis(graph.NodeID(u)))
		}
	}
	return sum
}

// Snapshot materializes the current reduced graph. Duplicate stream
// insertions of a kept edge are stored once, so the snapshot is always a
// simple graph.
func (s *Shedder) Snapshot() *graph.Graph {
	b := graph.NewBuilder(len(s.origDeg))
	for _, e := range s.kept {
		b.TryAddEdge(e.U, e.V)
	}
	return b.Graph()
}

// Edges returns a copy of the kept edge set.
func (s *Shedder) Edges() []graph.Edge {
	return append([]graph.Edge(nil), s.kept...)
}
