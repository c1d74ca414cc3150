package core

import (
	"math"

	"edgeshed/internal/graph"
	"edgeshed/internal/matching"
	"edgeshed/internal/obs"
)

// BM2 is B-Matching with Bipartite Matching (Algorithms 2 and 3).
//
// Phase 1 rounds each node's expected degree p·deg_G(u) to the nearest
// integer, halves up (an expected 0.5 becomes capacity 1), and greedily
// computes a maximal b-matching under those capacities. Phase 2 classifies
// nodes by their degree discrepancy into groups A (dis ≤ −0.5), B
// (−0.5 < dis < 0) and C (dis ≥ 0), builds a bipartite graph of still-shed
// A–B edges weighted by the Δ-gain of adding them (Lemma 1), keeping the
// gain = 0 edges as Algorithm 2 line 20 does (gain ≥ 0), and greedily
// matches it with dynamic re-weighting (Algorithm 3).
//
// The Algorithm 3 loop allocates in proportion to its queue, not to |E|: the
// k queued edges are numbered 0..k−1 in push order, and that dense slot keys
// a matching.FlatPQ, a slot table of edge ids and A/B orientations, and one
// run of slots per node — no maps, no per-edge Handle allocations. FlatPQ
// mirrors the pointer-handle PQ's heap dynamics exactly and compares
// priorities only, so the popped-edge order — and with it the selected edge
// set — is bit-identical to the map-based implementation this replaced
// (pinned by TestBM2MatchesSeedImplementation).
type BM2 struct {
	// Order is the edge scan order for Phase 1's greedy b-matching; the zero
	// value is the paper's input-order scan.
	Order matching.EdgeOrder
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, Reduce reports a "bm2.reduce" span with
	// "bm2.bmatching" and "bm2.bipartite" children plus FlatPQ operation
	// counters. Instrumentation never touches the heap dynamics, so the
	// selected edge set stays bit-identical with Obs on or off.
	Obs *obs.Span
}

// Name implements Reducer.
func (BM2) Name() string { return "BM2" }

// Reduce implements Reducer.
func (b BM2) Reduce(g *graph.Graph, p float64) (*Result, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	sp := b.Obs.Start("bm2.reduce")
	defer sp.End()

	// Phase 1 (Algorithm 2 lines 1-7): rounded capacities, greedy maximal
	// b-matching.
	phase1 := sp.Start("bm2.bmatching")
	caps := make([]int, n)
	for u := 0; u < n; u++ {
		caps[u] = int(math.Round(p * float64(g.Degree(graph.NodeID(u)))))
	}
	bm, err := matching.GreedyBMatching(g, caps, b.Order)
	phase1.End()
	if err != nil {
		return nil, err
	}
	inSelected := make([]uint64, (g.NumEdges()+63)/64)
	for _, id := range bm.IDs {
		inSelected[id>>6] |= 1 << (id & 63)
	}

	// Degree discrepancies after Phase 1 (lines 8-16). Group membership is
	// implied by the dis value; only A and B matter below.
	dis := make([]float64, n)
	for u := 0; u < n; u++ {
		dis[u] = float64(bm.Degrees[u]) - p*float64(g.Degree(graph.NodeID(u)))
	}
	inA := func(u graph.NodeID) bool { return dis[u] <= -0.5 }
	inB := func(u graph.NodeID) bool { return dis[u] > -0.5 && dis[u] < 0 }

	// Build the weighted bipartite graph G* over still-shed A–B edges
	// (lines 17-24). Queued edges are numbered 0..k−1 in push order
	// (ascending canonical id); that slot keys the queue, the edge's id and
	// its (a ∈ A, b ∈ B) orientation, fixed at build time since dis drifts
	// during Algorithm 3.
	gain := func(a, bb graph.NodeID) float64 {
		return math.Abs(dis[a]) + 2*math.Abs(dis[bb]) - math.Abs(dis[a]+1) - 1
	}
	phase2 := sp.Start("bm2.bipartite")
	var q matching.FlatPQ
	if phase2.Enabled() {
		q.Stats = new(matching.PQStats)
	}
	type bpEdge struct {
		id    int32
		a, bb graph.NodeID
	}
	var bp []bpEdge
	start := make([]int32, n+1) // node u's slots are run[start[u]:end[u]]
	// picks bounds the edges Algorithm 3 can still add: each pop moves its
	// B node to group C and drops the node's other edges, so at most one
	// edge per queued B node joins the result.
	picks := 0
	for i, e := range g.Edges() {
		if inSelected[i>>6]&(1<<(i&63)) != 0 {
			continue
		}
		// e.U's side is tested first: edges arrive sorted by U, so only
		// dis[e.V] is a random read, and only for e.U in A or B.
		var a, bb graph.NodeID
		switch {
		case inA(e.U) && inB(e.V):
			a, bb = e.U, e.V
		case inB(e.U) && inA(e.V):
			a, bb = e.V, e.U
		default:
			continue
		}
		w := gain(a, bb)
		if w < 0 {
			continue
		}
		q.Push(int32(len(bp)), w)
		bp = append(bp, bpEdge{int32(i), a, bb})
		if start[bb+1] == 0 {
			picks++
		}
		start[a+1]++
		start[bb+1]++
	}
	// A node is in A or in B, never both, so one run per node holds its
	// slots on whichever side it is: count (above), prefix sum, then fill
	// in slot order, which is the order the slots were pushed.
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	run := make([]int32, start[n])
	end := append([]int32(nil), start[:n]...)
	for s, e := range bp {
		run[end[e.a]] = int32(s)
		end[e.a]++
		run[end[e.bb]] = int32(s)
		end[e.bb]++
	}
	if q.Stats != nil {
		// The queue is fully built; stamp the build on the flight timeline
		// with its size.
		phase2.Marker(obs.EvPQBuild, "bm2.bipartite").Emit(0, q.Stats.Pushes)
	}

	// Quality probes (DESIGN.md §12): the matching-weight progression folds
	// the popped gains the loop already has in hand, recorded every
	// bm2WeightFlush pops and once at the end; the per-pop gain histogram
	// shares the micro-unit scaling of crr.delta_abs_micros.
	var qWeight *obs.Probe
	var gainHist *obs.Histogram
	var matchWeight float64
	pops := 0
	if phase2.Enabled() {
		qWeight = phase2.Quality("bm2.matching_weight", obs.DirHigher)
		gainHist = phase2.Histogram("bm2.gain_micros")
	}

	// Algorithm 3: pop best edges, update discrepancies, re-weight.
	for {
		s, popW, ok := q.Pop()
		if !ok {
			break
		}
		a, bb := bp[s].a, bp[s].bb
		if len(bm.IDs) == cap(bm.IDs) {
			// Phase 1's reserve is full: grow once, to exactly the bound,
			// where append would grow by a quarter at a time.
			bm.IDs = append(make([]int32, 0, len(bm.IDs)+picks), bm.IDs...)
		}
		bm.IDs = append(bm.IDs, bp[s].id)
		picks--
		if qWeight != nil {
			matchWeight += popW
			gainHist.Observe(int64(popW * 1e6))
			pops++
			if pops%bm2WeightFlush == 0 {
				qWeight.Record(p, matchWeight)
			}
		}
		// b joins group C (dis > 0): drop it and all its edges (line 6).
		dis[bb]++
		for _, t := range run[start[bb]:end[bb]] {
			q.Remove(t)
		}
		end[bb] = start[bb]
		// Update a (line 7) and branch on its new discrepancy.
		dis[a]++
		switch {
		case dis[a] <= -1:
			// Lemma 2 region: gains of a's edges are unchanged.
		case dis[a] <= -0.5:
			// a stays in group A but its gains shift (lines 8-14). The
			// algorithm states the open interval (−1, −0.5); at exactly
			// −0.5 the node is still in A per the group definition, so we
			// re-weight there too.
			live := start[a]
			for _, t := range run[start[a]:end[a]] {
				if !q.Contains(t) {
					continue
				}
				w := gain(a, bp[t].bb)
				if w > 0 {
					q.Update(t, w)
					run[live] = t
					live++
				} else {
					q.Remove(t)
				}
			}
			end[a] = live
		default:
			// dis(a) > −0.5: a left group A; drop its edges (lines 15-17).
			for _, t := range run[start[a]:end[a]] {
				q.Remove(t)
			}
			end[a] = start[a]
		}
	}
	if qWeight != nil {
		qWeight.Record(p, matchWeight)
	}
	if q.Stats != nil {
		phase2.Counter("flatpq.pushes").Add(q.Stats.Pushes)
		phase2.Counter("flatpq.pops").Add(q.Stats.Pops)
		phase2.Counter("flatpq.updates").Add(q.Stats.Updates)
		phase2.Counter("flatpq.removes").Add(q.Stats.Removes)
	}
	phase2.End()
	res, err := newResultIDs(g, p, bm.IDs)
	if err == nil && sp.Enabled() {
		// End-of-reduce quality record: kept counts, exact Δ, and Theorem 2
		// bound headroom, the same derivation as cmd/shed's stats rows.
		QualityOf(res, "BM2").record(sp, 0, "BM2")
	}
	return res, err
}

// bm2WeightFlush is how many Algorithm 3 pops pass between recordings of
// the matching-weight progression probe.
const bm2WeightFlush = 1 << 10
