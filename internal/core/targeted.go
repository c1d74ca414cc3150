package core

import (
	"math"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// TargetedCRR is an extension of CRR that replaces Phase 2's random swap
// attempts with targeted repair: it repeatedly visits the node with the
// largest positive discrepancy (too many kept edges) and the node with the
// most negative one (too few), and applies the single best swap incident to
// them. Each move is chosen greedily instead of sampled, so the same Δ
// reduction needs far fewer iterations than the paper's [10·P] random
// attempts — and the per-node incidence lists it needs come free from the
// CSR view's slot ranges, so the repair state is just two flat arrays.
//
// This is "future work" relative to the paper: Algorithm 1's Phase 2 is
// the random variant.
type TargetedCRR struct {
	// MaxRounds caps repair sweeps; 0 means 4·|V| visits, which saturates
	// in practice.
	MaxRounds int
	// Importance and Betweenness configure Phase 1 exactly as in CRR.
	Importance  Importance
	Betweenness centrality.Options
	// Seed drives Phase 1 tie-breaking.
	Seed int64
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, Reduce reports a "targeted.reduce" span
	// and a "targeted.repair.rounds" counter; results stay bit-identical
	// with Obs on or off.
	Obs *obs.Span
}

// Name implements Reducer.
func (TargetedCRR) Name() string { return "TargetedCRR" }

// Reduce implements Reducer.
func (c TargetedCRR) Reduce(g *graph.Graph, p float64) (*Result, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	sp := c.Obs.Start("targeted.reduce")
	defer sp.End()
	tgt := targetEdges(g, p)
	m := g.NumEdges()
	if tgt >= m {
		return newResult(g, p, g.Edges())
	}
	// Phase 1: identical ranking to CRR.
	scores := (CRR{Seed: c.Seed, Importance: c.Importance, Betweenness: c.Betweenness}).edgeImportance(g, sp)
	order := rankEdges(scores, c.Seed)
	st := newTargetedState(g, p)
	for i, id := range order {
		st.setKept(id, i < tgt)
	}

	// Phase 2: targeted repair.
	rounds := c.MaxRounds
	if rounds <= 0 {
		rounds = 4 * g.NumNodes()
	}
	done := 0
	for i := 0; i < rounds; i++ {
		if !st.repairOnce() {
			break
		}
		done++
	}
	if sp.Enabled() {
		sp.Counter("targeted.repair.rounds").Add(int64(done))
	}
	return newResultIDs(g, p, st.keptIDs())
}

// targetedState maintains the kept flags (a []bool over canonical edge ids)
// and per-node discrepancies; incidence is read straight off the CSR view's
// slot ranges, which enumerate each node's edges in the same order the old
// per-node lists did.
type targetedState struct {
	g     *graph.Graph
	csr   *graph.CSR
	edges []graph.Edge
	p     float64
	kept  []bool
	dis   []float64
}

func newTargetedState(g *graph.Graph, p float64) *targetedState {
	st := &targetedState{
		g:     g,
		csr:   g.CSR(),
		edges: g.Edges(),
		p:     p,
		kept:  make([]bool, g.NumEdges()),
		dis:   make([]float64, g.NumNodes()),
	}
	for u := 0; u < g.NumNodes(); u++ {
		st.dis[u] = -p * float64(g.Degree(graph.NodeID(u)))
	}
	return st
}

// setKept initializes an edge's kept flag, updating discrepancies.
func (st *targetedState) setKept(id int32, kept bool) {
	st.kept[id] = kept
	if kept {
		st.dis[st.edges[id].U]++
		st.dis[st.edges[id].V]++
	}
}

// repairOnce performs the best swap anchored at the most discrepant nodes;
// it reports whether any improving move was applied.
func (st *targetedState) repairOnce() bool {
	// Locate extremes.
	hi, lo := -1, -1
	for u := range st.dis {
		if st.dis[u] > 0.5 && (hi < 0 || st.dis[u] > st.dis[hi]) {
			hi = u
		}
		if st.dis[u] < -0.5 && (lo < 0 || st.dis[u] < st.dis[lo]) {
			lo = u
		}
	}
	if hi < 0 && lo < 0 {
		return false
	}
	// Candidate removal: hi's kept edge whose removal helps most.
	remove, add := int32(-1), int32(-1)
	removeGain := math.Inf(1)
	if hi >= 0 {
		for s := st.csr.Offsets[hi]; s < st.csr.Offsets[hi+1]; s++ {
			id := st.csr.EdgeID[s]
			if !st.kept[id] {
				continue
			}
			d := st.pairChange(id, -1)
			if d < removeGain {
				removeGain = d
				remove = id
			}
		}
	}
	addGain := math.Inf(1)
	if lo >= 0 {
		for s := st.csr.Offsets[lo]; s < st.csr.Offsets[lo+1]; s++ {
			id := st.csr.EdgeID[s]
			if st.kept[id] {
				continue
			}
			d := st.pairChange(id, +1)
			if d < addGain {
				addGain = d
				add = id
			}
		}
	}
	// A swap must keep |E'| fixed: need both a removal and an addition. If
	// either side is missing, fall back to the best removal+addition found
	// by scanning the other side's extremes too.
	if math.IsInf(removeGain, 1) || math.IsInf(addGain, 1) {
		return false
	}
	if remove == add {
		return false
	}
	total := swapChange(st, remove, add)
	if total >= 0 {
		return false
	}
	st.apply(remove, add)
	return true
}

// pairChange returns the Δ change of shifting both endpoints of edge id by
// delta.
func (st *targetedState) pairChange(id int32, delta int) float64 {
	u, v := st.edges[id].U, st.edges[id].V
	d := float64(delta)
	return math.Abs(st.dis[u]+d) - math.Abs(st.dis[u]) +
		math.Abs(st.dis[v]+d) - math.Abs(st.dis[v])
}

// swapChange evaluates the exact Δ change of the remove+add pair, handling
// shared endpoints.
func swapChange(st *targetedState, remove, add int32) float64 {
	return deltaChange(func(u graph.NodeID) float64 { return st.dis[u] },
		st.edges[remove].U, st.edges[remove].V,
		st.edges[add].U, st.edges[add].V)
}

// apply commits the swap.
func (st *targetedState) apply(remove, add int32) {
	st.kept[remove] = false
	st.dis[st.edges[remove].U]--
	st.dis[st.edges[remove].V]--
	st.kept[add] = true
	st.dis[st.edges[add].U]++
	st.dis[st.edges[add].V]++
}

// keptIDs collects the kept edge ids in ascending order.
func (st *targetedState) keptIDs() []int32 {
	var out []int32
	for id, k := range st.kept {
		if k {
			out = append(out, int32(id))
		}
	}
	return out
}
