package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// DefaultStepsFactor is the paper's recommended x in steps = [x·P]: Figure 4
// shows quality flattening past x = 10.
const DefaultStepsFactor = 10

// Importance selects the edge-importance function for CRR Phase 1. The
// paper argues for betweenness centrality; the alternatives exist for the
// DESIGN.md §5.6 ablation that tests that argument.
type Importance int

const (
	// ImportanceBetweenness ranks edges by betweenness centrality, the
	// paper's choice (Algorithm 1 line 3).
	ImportanceBetweenness Importance = iota
	// ImportanceDegreeProduct ranks edges by deg(u)·deg(v), a cheap local
	// proxy for structural importance.
	ImportanceDegreeProduct
	// ImportanceRandom ranks edges uniformly at random, isolating Phase 2's
	// contribution from any Phase 1 signal.
	ImportanceRandom
)

// String implements fmt.Stringer.
func (im Importance) String() string {
	switch im {
	case ImportanceBetweenness:
		return "betweenness"
	case ImportanceDegreeProduct:
		return "degree-product"
	case ImportanceRandom:
		return "random"
	}
	return fmt.Sprintf("Importance(%d)", int(im))
}

// CRR is Centrality Ranking with Rewiring (Algorithm 1).
//
// Phase 1 computes edge betweenness centrality, ranks all edges and keeps
// the top [p·|E|]. Phase 2 performs `steps` random edge-replacement attempts,
// each swapping a kept edge for a shed one when that strictly reduces the
// total degree discrepancy Δ.
type CRR struct {
	// Steps is the number of rewiring iterations. 0 means the paper default
	// [StepsFactor·P]; a negative value disables Phase 2 entirely (pure
	// centrality ranking).
	Steps int
	// StepsFactor is x in steps = [x·P], used only when Steps == 0. 0 means
	// DefaultStepsFactor.
	StepsFactor float64
	// Importance selects the Phase 1 edge-importance function; the zero
	// value is the paper's betweenness centrality.
	Importance Importance
	// Betweenness configures the Phase 1 centrality computation (used only
	// with ImportanceBetweenness); the zero value is exact Brandes on all
	// sources, batched 64 wide on the MS-BFS engine. Its Workers and Batch
	// fields are performance knobs only — the scores, and therefore the
	// reduction, are bit-identical at any setting.
	Betweenness centrality.Options
	// Seed drives tie-breaking of equal-importance edges ("edges of the
	// same importance are selected randomly") and the Phase 2 edge picks.
	Seed int64
	// Workers bounds the goroutines Sweep uses to run its per-ratio
	// reductions concurrently. <= 0 selects GOMAXPROCS. Sweep's output is
	// bit-identical at any worker count: each ratio's rng stream is derived
	// independently via sweepSeed, so the points never share mutable state.
	Workers int
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, Reduce reports a "crr.reduce" span with
	// "crr.phase1.rank" and "crr.phase2.rewire" children plus rewiring
	// attempt/accept counters, and Sweep wraps the points in a "crr.sweep"
	// span with per-worker busy time. Instrumentation never feeds back into
	// the rng streams or the swap decisions, so results stay bit-identical
	// with Obs on or off, at any worker count.
	Obs *obs.Span
}

// rewireFlush is how many Phase 2 attempts pass between live flushes of
// the rewire counters and span progress. Large enough that the flush is
// invisible next to the per-attempt work, small enough that a debug-plane
// scrape of a multi-second rewire sees fresh numbers.
const rewireFlush = 1 << 20

// Name implements Reducer.
func (CRR) Name() string { return "CRR" }

// steps resolves the iteration count for a target of tgt kept edges.
func (c CRR) steps(tgt int) int {
	if c.Steps < 0 {
		return 0
	}
	if c.Steps > 0 {
		return c.Steps
	}
	factor := c.StepsFactor
	if factor <= 0 {
		factor = DefaultStepsFactor
	}
	return int(math.Round(factor * float64(tgt)))
}

// Reduce implements Reducer.
func (c CRR) Reduce(g *graph.Graph, p float64) (*Result, error) {
	return c.reduce(g, p, nil, c.Seed, c.Obs, 0)
}

// Sweep reduces g at every ratio in ps, computing the Phase 1 edge
// importances once and reusing them — the expensive part of CRR is the
// betweenness computation, which does not depend on p. Results align with
// ps.
//
// Each sweep point runs with a seed derived from (Seed, ratio index), so the
// "edges of the same importance are selected randomly" tie-break and the
// Phase 2 pick sequence are independent across ratios instead of replaying
// one permutation for the whole Figure-4/5 sweep. That independence also
// makes the points embarrassingly parallel: Sweep runs them across Workers
// goroutines with static striding, and the i-th result is the same bits
// whether the sweep runs serially or on any number of workers.
func (c CRR) Sweep(g *graph.Graph, ps []float64) ([]*Result, error) {
	for _, p := range ps {
		if err := checkP(p); err != nil {
			return nil, err
		}
	}
	sp := c.Obs.Start("crr.sweep")
	defer sp.End()
	sp.SetTotal(int64(len(ps)))
	scores := c.edgeImportance(g, sp)
	out := make([]*Result, len(ps))
	errs := make([]error, len(ps))
	workers := par.Workers(c.Workers, len(ps))
	ratioNs := sp.Histogram("crr.sweep.ratio_ns")
	par.Run(workers, func(w int) {
		var t0 time.Time
		if sp.Enabled() {
			t0 = time.Now()
		}
		for i := w; i < len(ps); i += workers {
			if sp.Enabled() {
				r0 := time.Now()
				out[i], errs[i] = c.reduce(g, ps[i], scores, sweepSeed(c.Seed, i), sp, w)
				ratioNs.ObserveAt(w, time.Since(r0).Nanoseconds())
			} else {
				out[i], errs[i] = c.reduce(g, ps[i], scores, sweepSeed(c.Seed, i), sp, w)
			}
			sp.Done(1)
		}
		if sp.Enabled() {
			sp.WorkerBusy(w, time.Since(t0))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweepSeed derives the per-ratio seed for sweep point i with a
// splitmix64-style mix, so neighboring indices land on uncorrelated rng
// streams.
func sweepSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// reduce runs CRR with optionally precomputed Phase 1 scores, an explicit
// rng seed (c.Seed for single runs, a per-ratio derivation for sweeps), an
// explicit parent span (c.Obs for single runs, the sweep span for sweeps;
// nil is free), and the worker slot running it (0 for single runs, the
// sweep worker index for sweeps) so hot-loop histogram and flight-event
// writes land on the worker's own shard.
//
// The whole pipeline is edge-id native: Phase 1 ranks int32 edge ids, Phase 2
// swaps ids across the kept boundary, reads endpoints from the canonical
// edge list by id (both endpoints of an edge share one cache line) and a
// node's kept and expected degree from one 16-byte nodeRec, and loads a
// group of attempts ahead so that their cache misses overlap (see rewire).
// Edges materialize as new graph.Edge values only when the Result is
// assembled, from the kept ids ordered by a bitset. No step hashes an edge
// or touches a map.
func (c CRR) reduce(g *graph.Graph, p float64, scores []float64, seed int64, parent *obs.Span, slot int) (*Result, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	sp := parent.Start("crr.reduce")
	defer sp.End()
	tgt := targetEdges(g, p)
	m := g.NumEdges()
	if tgt >= m {
		res, err := newResult(g, p, g.Edges())
		if err == nil && sp.Enabled() {
			QualityOf(res, "CRR").record(sp, slot, "CRR")
		}
		return res, err
	}

	// Phase 1 (lines 1-6): rank all edges by importance and keep the top
	// [P]. The splitmix64 tiebreak inside rankEdges realizes the paper's
	// random selection among equal-importance edges without consuming the
	// Phase 2 rng stream.
	rank := sp.Start("crr.phase1.rank")
	if scores == nil {
		scores = c.edgeImportance(g, rank)
	}
	// kept[:tgt] is E', kept[tgt:] is E \ E'. Swaps exchange positions
	// across the boundary, keeping |E'| = [P] invariant (the paper's
	// expected-average-degree guarantee).
	kept := rankEdges(scores, seed)
	rank.End()

	if tgt > 0 {
		nodes := newNodeRecs(g, kept[:tgt], p)
		rw := sp.Start("crr.phase2.rewire")
		c.rewire(g.Edges(), kept, tgt, nodes, p, seed, rw, slot)
		rw.End()
	}
	res, err := newResultIDs(g, p, kept[:tgt])
	if err == nil && sp.Enabled() {
		// The authoritative end-of-reduce quality record: kept counts, exact
		// Δ, and Theorem 1 bound headroom — the same derivation cmd/shed's
		// -stats-json rows use, so manifest and stats cannot drift.
		QualityOf(res, "CRR").record(sp, slot, "CRR")
	}
	return res, err
}

// nodeRec is one node's Phase 2 state, dis(u) = kept − exp: its degree in
// E' and its expected degree p·deg_G(u), which is constant and so computed
// once. Side by side they cost an attempt one cache line per endpoint.
type nodeRec struct {
	kept int
	exp  float64
}

// newNodeRecs returns every node's nodeRec for the kept edge ids.
func newNodeRecs(g *graph.Graph, kept []int32, p float64) []nodeRec {
	edges := g.Edges()
	nodes := make([]nodeRec, g.NumNodes())
	for u := range nodes {
		nodes[u].exp = p * float64(g.Degree(graph.NodeID(u)))
	}
	for _, id := range kept {
		nodes[edges[id].U].kept++
		nodes[edges[id].V].kept++
	}
	return nodes
}

// rewireGroup is how many Phase 2 attempts load ahead together: enough
// overlapping misses to run at memory speed on graphs larger than the
// caches (DESIGN.md §7.1).
const rewireGroup = 8

// rewireAhead is what one Phase 2 attempt loads before its group runs: its
// two slots, the ids they held, those edges, and the expected degrees of
// the endpoints u1, v1, u2, v2.
type rewireAhead struct {
	ki, si   int
	id1, id2 int32
	e1, e2   graph.Edge
	exp      [4]float64
}

// loadExp reads the expected degrees of a's endpoints.
func (a *rewireAhead) loadExp(nodes []nodeRec) {
	a.exp = [4]float64{nodes[a.e1.U].exp, nodes[a.e1.V].exp, nodes[a.e2.U].exp, nodes[a.e2.V].exp}
}

// rewire runs Phase 2 (Algorithm 1 lines 7-13) on the ranking kept, whose
// first tgt ids are E', with nodes holding the degrees in E': c.steps(tgt)
// random replacement attempts, each swapping the kept edge in slot ki for
// the shed edge in slot si when that strictly lowers Δ. For disjoint edge
// pairs the criterion equals the paper's d1 + d2; when the edges share an
// endpoint it evaluates the true Δ change, which the paper's independent
// formulas slightly misstate.
//
// An attempt's two draws never read the state, so attempts run in groups
// of rewireGroup that load ahead: draw the group's slots in the same
// order, then read the ids in them, then those edges, then the endpoints'
// expected degrees, one pass each, so that a pass's misses overlap and no
// draw waits behind a slot's miss. Then the attempts run in order. Each
// re-reads its two slots and its endpoints' kept degrees, so it sees the
// swaps made earlier in its group. It takes its edges and expected
// degrees, which no swap changes, from the loads ahead, and reloads them
// only when a swap has moved another id into one of its slots. Taking
// them from the loads ahead is what keeps those loads: Go has no prefetch
// and drops a load whose value is unused. Counter flushes and the Δ
// histogram stay per attempt.
func (c CRR) rewire(edges []graph.Edge, kept []int32, tgt int, nodes []nodeRec, p float64, seed int64, rw *obs.Span, slot int) {
	m := len(kept)
	dis := func(u graph.NodeID) float64 {
		return float64(nodes[u].kept) - nodes[u].exp
	}
	rng := rand.New(rand.NewSource(seed))
	steps := c.steps(tgt)
	rw.SetTotal(int64(steps))
	// Live counters flush every rewireFlush attempts so a /metrics or
	// /progress scrape mid-run sees Phase 2 advancing; the loop itself only
	// pays a nil check per step when observability is off. The tallies stay
	// plain locals and the remainder folds in after the loop, making the
	// final counter values independent of scrape timing.
	var attCtr, accCtr *obs.Counter
	var deltaHist *obs.Histogram
	var flushMk *obs.Marker
	var qDelta, qRate, qLinf *obs.Probe
	var curDelta float64
	if rw.Enabled() {
		attCtr = rw.Counter("crr.rewire.attempts")
		accCtr = rw.Counter("crr.rewire.accepted")
		deltaHist = rw.Histogram("crr.delta_abs_micros")
		flushMk = rw.Marker(obs.EvRewireFlush, "crr.phase2.rewire")
		// Quality probes (DESIGN.md §12): the Δ trajectory is maintained
		// incrementally from the accepted swap deltas the loop already
		// computes, so its upkeep is one add per accepted swap; the L∞
		// error is a read-only O(|V|) scan run only at flush cadence.
		qDelta = rw.Quality("crr.delta")
		qRate = rw.Quality("crr.accept_rate")
		qLinf = rw.Quality("crr.deg_err_linf")
		for u := range nodes {
			curDelta += math.Abs(dis(graph.NodeID(u)))
		}
	}
	attempts, accepted := 0, 0
	flushedAtt, flushedAcc := 0, 0
	var ahead [rewireGroup]rewireAhead
	for attempts < steps {
		grp := ahead[:min(rewireGroup, steps-attempts)]
		for i := range grp {
			a := &grp[i]
			a.ki = rng.Intn(tgt)         // e1 ∈ E'
			a.si = tgt + rng.Intn(m-tgt) // e2 ∈ E \ E'
		}
		for i := range grp {
			a := &grp[i]
			a.id1, a.id2 = kept[a.ki], kept[a.si]
		}
		for i := range grp {
			a := &grp[i]
			a.e1, a.e2 = edges[a.id1], edges[a.id2]
		}
		for i := range grp {
			grp[i].loadExp(nodes)
		}
		for i := range grp {
			a := &grp[i]
			attempts++
			if attCtr != nil && attempts%rewireFlush == 0 {
				attCtr.AddAt(slot, int64(attempts-flushedAtt))
				accCtr.AddAt(slot, int64(accepted-flushedAcc))
				rw.Done(int64(attempts - flushedAtt))
				qDelta.RecordAt(slot, p, curDelta)
				qRate.RecordAt(slot, p, float64(accepted-flushedAcc)/float64(attempts-flushedAtt))
				qLinf.RecordAt(slot, p, maxAbsDis(nodes))
				flushedAtt, flushedAcc = attempts, accepted
				flushMk.Emit(slot, int64(attempts))
			}
			if id1, id2 := kept[a.ki], kept[a.si]; id1 != a.id1 || id2 != a.id2 {
				// An earlier swap in this group moved another edge into one
				// of the slots.
				a.id1, a.id2 = id1, id2
				a.e1, a.e2 = edges[id1], edges[id2]
				a.loadExp(nodes)
			}
			// Remove e1, add e2.
			u1, v1, u2, v2 := a.e1.U, a.e1.V, a.e2.U, a.e2.V
			var d float64
			if u1 != u2 && u1 != v2 && v1 != u2 && v1 != v2 {
				// Disjoint endpoints — the overwhelmingly common case on a
				// sparse graph. Evaluate the four independent shifts inline,
				// in deltaChange's exact accumulation order, skipping its
				// duplicate-folding pass and per-node closure calls.
				du1 := float64(nodes[u1].kept) - a.exp[0]
				dv1 := float64(nodes[v1].kept) - a.exp[1]
				du2 := float64(nodes[u2].kept) - a.exp[2]
				dv2 := float64(nodes[v2].kept) - a.exp[3]
				d = math.Abs(du1-1) - math.Abs(du1)
				d += math.Abs(dv1-1) - math.Abs(dv1)
				d += math.Abs(du2+1) - math.Abs(du2)
				d += math.Abs(dv2+1) - math.Abs(dv2)
			} else {
				d = deltaChange(dis, u1, v1, u2, v2)
			}
			if deltaHist != nil {
				deltaHist.ObserveAt(slot, int64(math.Abs(d)*1e6))
			}
			if d < 0 {
				kept[a.ki], kept[a.si] = a.id2, a.id1
				nodes[u1].kept--
				nodes[v1].kept--
				nodes[u2].kept++
				nodes[v2].kept++
				accepted++
				if qDelta != nil {
					curDelta += d
				}
			}
		}
	}
	if rw.Enabled() {
		attCtr.AddAt(slot, int64(attempts-flushedAtt))
		accCtr.AddAt(slot, int64(accepted-flushedAcc))
		rw.Done(int64(attempts - flushedAtt))
		if attempts > flushedAtt {
			qRate.RecordAt(slot, p, float64(accepted-flushedAcc)/float64(attempts-flushedAtt))
		}
		qDelta.RecordAt(slot, p, curDelta)
		qLinf.RecordAt(slot, p, maxAbsDis(nodes))
		flushMk.Emit(slot, int64(attempts))
	}
}

// maxAbsDis returns the L∞ degree-preservation error max_u |kept(u) −
// exp(u)|.
func maxAbsDis(nodes []nodeRec) float64 {
	var worst float64
	for _, r := range nodes {
		if d := math.Abs(float64(r.kept) - r.exp); d > worst {
			worst = d
		}
	}
	return worst
}

// edgeImportance computes the Phase 1 ranking scores, aligned with
// g.Edges(). The betweenness path nests its kernel span under sp (nil is
// free).
func (c CRR) edgeImportance(g *graph.Graph, sp *obs.Span) []float64 {
	switch c.Importance {
	case ImportanceDegreeProduct:
		scores := make([]float64, g.NumEdges())
		for i, e := range g.Edges() {
			scores[i] = float64(g.Degree(e.U)) * float64(g.Degree(e.V))
		}
		return scores
	case ImportanceRandom:
		// All-equal scores: the ranking tiebreak supplies the randomness.
		return make([]float64, g.NumEdges())
	default:
		bopt := c.Betweenness
		if bopt.Seed == 0 {
			bopt.Seed = c.Seed + 1
		}
		bopt.Obs = sp
		return centrality.EdgeBetweennessScores(g, bopt)
	}
}

// deltaChange returns the exact change in Δ caused by removing edge (u1, v1)
// and adding edge (u2, v2), accounting for shared endpoints.
func deltaChange(dis func(graph.NodeID) float64, u1, v1, u2, v2 graph.NodeID) float64 {
	nodes := [4]graph.NodeID{u1, v1, u2, v2}
	deltas := [4]int{-1, -1, 1, 1}
	// Fold duplicate nodes into a single net delta.
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
		du := dis(u)
		d += math.Abs(du+float64(deltas[i])) - math.Abs(du)
	}
	return d
}
