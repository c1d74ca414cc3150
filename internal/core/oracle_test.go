package core

// This file preserves the pre-flat shedding implementations — edge-struct
// CRR Phase 2, the map-adjacency pointer-handle BM2, the map-deduplicated
// ForestFire — verbatim as oracles, in the style the parallel analysis
// kernels established: the production code may change representation freely,
// but these tests pin its output bit-for-bit to what the simpler structures
// computed. They double as the "old" side of the MapIndexed/CSRIndexed
// benchmark pairs.
//
// CRR's Phase 1 ranking is the one deliberate behavior change of the flat
// migration (rng.Perm + stable sort → splitmix64 tie keys), so the CRR
// oracle shares the new ranking and pins Phase 2 + result assembly; BM2 and
// ForestFire have no such change and are pinned end to end.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/matching"
	"edgeshed/internal/obs"
)

// seedCRRPhase2 is CRR.reduce as it stood before the edge-id migration —
// kept edges as graph.Edge values, discrepancies recomputed from
// g.Degree, one attempt drawn and run at a time — except that Phase 1 uses
// the shared rankEdges order, so the comparison isolates the
// representation change. It also returns Phase 2's attempt and accept
// counts.
func seedCRRPhase2(c CRR, g *graph.Graph, p float64, seed int64) (res *Result, attempts, accepted int, err error) {
	if err := checkP(p); err != nil {
		return nil, 0, 0, err
	}
	tgt := targetEdges(g, p)
	m := g.NumEdges()
	if tgt >= m {
		res, err := newResult(g, p, g.Edges())
		return res, 0, 0, err
	}
	scores := c.edgeImportance(g, nil)
	order := rankEdges(scores, seed)
	all := g.Edges()
	kept := make([]graph.Edge, m)
	for i, id := range order {
		kept[i] = all[id]
	}
	degKept := make([]int, g.NumNodes())
	for _, e := range kept[:tgt] {
		degKept[e.U]++
		degKept[e.V]++
	}
	dis := func(u graph.NodeID) float64 {
		return float64(degKept[u]) - p*float64(g.Degree(u))
	}
	if tgt > 0 && tgt < m {
		rng := rand.New(rand.NewSource(seed))
		steps := c.steps(tgt)
		for i := 0; i < steps; i++ {
			attempts++
			ki := rng.Intn(tgt)
			si := tgt + rng.Intn(m-tgt)
			e1, e2 := kept[ki], kept[si]
			d := deltaChange(dis, e1.U, e1.V, e2.U, e2.V)
			if d < 0 {
				kept[ki], kept[si] = e2, e1
				degKept[e1.U]--
				degKept[e1.V]--
				degKept[e2.U]++
				degKept[e2.V]++
				accepted++
			}
		}
	}
	res, err = newResult(g, p, kept[:tgt])
	return res, attempts, accepted, err
}

// seedCRRReduce is the complete pre-migration CRR pipeline, including the
// rng.Perm + sort.SliceStable ranking. Its output differs from CRR.Reduce
// by the documented tie-break change; it exists as the "old" side of
// BenchmarkCRRReduceMapIndexed, not as an equality oracle.
func seedCRRReduce(c CRR, g *graph.Graph, p float64) (*Result, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	tgt := targetEdges(g, p)
	m := g.NumEdges()
	if tgt >= m {
		return newResult(g, p, g.Edges())
	}
	scores := c.edgeImportance(g, nil)
	order := rng.Perm(m)
	sort.SliceStable(order, func(i, j int) bool {
		return scores[order[i]] > scores[order[j]]
	})
	all := g.Edges()
	kept := make([]graph.Edge, m)
	for i, oi := range order {
		kept[i] = all[oi]
	}
	degKept := make([]int, g.NumNodes())
	for _, e := range kept[:tgt] {
		degKept[e.U]++
		degKept[e.V]++
	}
	dis := func(u graph.NodeID) float64 {
		return float64(degKept[u]) - p*float64(g.Degree(u))
	}
	if tgt > 0 && tgt < m {
		steps := c.steps(tgt)
		for i := 0; i < steps; i++ {
			ki := rng.Intn(tgt)
			si := tgt + rng.Intn(m-tgt)
			e1, e2 := kept[ki], kept[si]
			if deltaChange(dis, e1.U, e1.V, e2.U, e2.V) < 0 {
				kept[ki], kept[si] = e2, e1
				degKept[e1.U]--
				degKept[e1.V]--
				degKept[e2.U]++
				degKept[e2.V]++
			}
		}
	}
	return newResult(g, p, kept[:tgt])
}

// seedBM2Reduce is BM2.Reduce as it stood before the FlatPQ migration:
// pointer-handle priority queue, map-of-handle-slices adjacency. It also
// returns how many edges Phase 2 (Algorithm 3) added.
func seedBM2Reduce(b BM2, g *graph.Graph, p float64) (res *Result, added int, err error) {
	if err := checkP(p); err != nil {
		return nil, 0, err
	}
	n := g.NumNodes()
	caps := make([]int, n)
	for u := 0; u < n; u++ {
		caps[u] = int(math.Round(p * float64(g.Degree(graph.NodeID(u)))))
	}
	bm, err := matching.GreedyBMatching(g, caps, b.Order)
	if err != nil {
		return nil, 0, err
	}
	var selected []graph.Edge
	for _, id := range bm.IDs {
		selected = append(selected, g.Edges()[id])
	}
	inSelected := make([]bool, g.NumEdges())
	for _, id := range bm.IDs {
		inSelected[id] = true
	}
	dis := make([]float64, n)
	for u := 0; u < n; u++ {
		dis[u] = float64(bm.Degrees[u]) - p*float64(g.Degree(graph.NodeID(u)))
	}
	inA := func(u graph.NodeID) bool { return dis[u] <= -0.5 }
	inB := func(u graph.NodeID) bool { return dis[u] > -0.5 && dis[u] < 0 }
	gain := func(a, bb graph.NodeID) float64 {
		return math.Abs(dis[a]) + 2*math.Abs(dis[bb]) - math.Abs(dis[a]+1) - 1
	}
	type bpEdge struct{ a, b graph.NodeID }
	var q matching.PQ[bpEdge]
	adjA := make(map[graph.NodeID][]*matching.Handle[bpEdge])
	adjB := make(map[graph.NodeID][]*matching.Handle[bpEdge])
	for i, e := range g.Edges() {
		if inSelected[i] {
			continue
		}
		var a, bb graph.NodeID
		switch {
		case inA(e.U) && inB(e.V):
			a, bb = e.U, e.V
		case inA(e.V) && inB(e.U):
			a, bb = e.V, e.U
		default:
			continue
		}
		w := gain(a, bb)
		if w < 0 {
			continue
		}
		h := q.Push(bpEdge{a, bb}, w)
		adjA[a] = append(adjA[a], h)
		adjB[bb] = append(adjB[bb], h)
	}
	for {
		e, _, ok := q.Pop()
		if !ok {
			break
		}
		selected = append(selected, graph.Edge{U: e.a, V: e.b}.Canonical())
		dis[e.b]++
		for _, h := range adjB[e.b] {
			q.Remove(h)
		}
		delete(adjB, e.b)
		dis[e.a]++
		switch {
		case dis[e.a] <= -1:
		case dis[e.a] <= -0.5:
			live := adjA[e.a][:0]
			for _, h := range adjA[e.a] {
				if !h.Valid() {
					continue
				}
				w := gain(e.a, h.Value.b)
				if w > 0 {
					q.Update(h, w)
					live = append(live, h)
				} else {
					q.Remove(h)
				}
			}
			adjA[e.a] = live
		default:
			for _, h := range adjA[e.a] {
				q.Remove(h)
			}
			delete(adjA, e.a)
		}
	}
	res, err = newResult(g, p, selected)
	return res, len(selected) - len(bm.IDs), err
}

// seedForestFire is ForestFire.Reduce as it stood before the edge-id
// migration: collected edges deduplicated through a map[graph.Edge] set,
// incidence read from g.Neighbors.
func seedForestFire(f ForestFire, g *graph.Graph, p float64) (*Result, error) {
	if err := checkP(p); err != nil {
		return nil, err
	}
	tgt := targetEdges(g, p)
	if tgt >= g.NumEdges() {
		return newResult(g, p, g.Edges())
	}
	rng := rand.New(rand.NewSource(f.Seed))
	pf := f.burnProb()
	n := g.NumNodes()
	burned := make([]bool, n)
	taken := make(map[graph.Edge]struct{}, tgt)
	edges := make([]graph.Edge, 0, tgt)
	takeIncident := func(u graph.NodeID) {
		for _, v := range g.Neighbors(u) {
			if !burned[v] || len(edges) >= tgt {
				continue
			}
			e := graph.Edge{U: u, V: v}.Canonical()
			if _, dup := taken[e]; dup {
				continue
			}
			taken[e] = struct{}{}
			edges = append(edges, e)
		}
	}
	var queue []graph.NodeID
	for len(edges) < tgt {
		seed := graph.NodeID(rng.Intn(n))
		for tries := 0; burned[seed] && tries < 4*n; tries++ {
			seed = graph.NodeID(rng.Intn(n))
		}
		if burned[seed] {
			for i := range burned {
				burned[i] = false
			}
		}
		burned[seed] = true
		queue = append(queue[:0], seed)
		for head := 0; head < len(queue) && len(edges) < tgt; head++ {
			u := queue[head]
			takeIncident(u)
			burnCount := 0
			for rng.Float64() < pf {
				burnCount++
			}
			nb := g.Neighbors(u)
			for i := 0; i < burnCount && i < len(nb); i++ {
				v := nb[rng.Intn(len(nb))]
				if !burned[v] {
					burned[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return newResult(g, p, edges)
}

// oracleGraphs are the shared test topologies: scale-free, uniform random,
// and community-structured.
func oracleGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"barabasi-albert":   gen.BarabasiAlbert(400, 3, 7),
		"erdos-renyi":       gen.ErdosRenyi(400, 900, 11),
		"planted-partition": gen.PlantedPartition(4, 100, 0.05, 0.005, 13),
	}
}

// sameReduction fails the test unless both results keep the identical edge
// sequence.
func sameReduction(t *testing.T, label string, got, want *Result) {
	t.Helper()
	ge, we := got.Reduced.Edges(), want.Reduced.Edges()
	if len(ge) != len(we) {
		t.Fatalf("%s: kept %d edges, oracle kept %d", label, len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("%s: edge %d = %v, oracle has %v", label, i, ge[i], we[i])
		}
	}
}

// TestCRRMatchesSeedPhase2 pins Phase 2, which loads rewireGroup attempts
// ahead, to the oracle, which runs one attempt at a time. Step counts of 1,
// 7 and 9 leave a ragged last group, 2^20 + 3 also crosses the counter
// flush. On six edges at p = 0.5 every group draws the three kept slots
// again and again, so an attempt must see the swaps made earlier in its
// group; attempts that read a slot's id or its edge as loaded ahead give
// other edges there.
func TestCRRMatchesSeedPhase2(t *testing.T) {
	graphs := oracleGraphs()
	graphs["six-edges"] = graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 4}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 1, V: 4}, {U: 2, V: 3}})
	for name, g := range graphs {
		for _, c := range []CRR{
			{Seed: 3, Importance: ImportanceDegreeProduct},
			{Seed: 5, Importance: ImportanceRandom},
			{Seed: 11, Importance: ImportanceRandom, Steps: 1},
			{Seed: 13, Importance: ImportanceDegreeProduct, Steps: 7},
			{Seed: 17, Importance: ImportanceRandom, Steps: 9},
			{Seed: 19, Importance: ImportanceRandom, Steps: 1<<20 + 3},
		} {
			for _, p := range []float64{0.2, 0.5, 0.8} {
				got, err := c.Reduce(g, p)
				if err != nil {
					t.Fatal(err)
				}
				want, _, _, err := seedCRRPhase2(c, g, p, c.Seed)
				if err != nil {
					t.Fatal(err)
				}
				sameReduction(t, fmt.Sprintf("%s %v steps=%d p=%v", name, c.Importance, c.Steps, p), got, want)
			}
		}
	}
}

// TestCRRRewireCountersMatchSeedPhase2 runs Phase 2 with a live recorder
// across the 2^20-attempt counter flush and at the default step count: the
// kept edges and the crr.rewire.attempts and crr.rewire.accepted counters
// must equal the oracle's.
func TestCRRRewireCountersMatchSeedPhase2(t *testing.T) {
	g := oracleGraphs()["barabasi-albert"]
	for _, c := range []CRR{
		{Seed: 19, Importance: ImportanceRandom, Steps: 1<<20 + 3},
		{Seed: 7, Importance: ImportanceDegreeProduct},
	} {
		want, attempts, accepted, err := seedCRRPhase2(c, g, 0.5, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New("test")
		c.Obs = rec.Root()
		got, err := c.Reduce(g, 0.5)
		rec.Root().End()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("steps=%d", c.Steps)
		sameReduction(t, label, got, want)
		vals := rec.CounterValues()
		if vals["crr.rewire.attempts"] != int64(attempts) || vals["crr.rewire.accepted"] != int64(accepted) {
			t.Fatalf("%s: counters attempts=%d accepted=%d, oracle %d and %d", label,
				vals["crr.rewire.attempts"], vals["crr.rewire.accepted"], attempts, accepted)
		}
	}
}

func TestCRRBetweennessMatchesSeedPhase2(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 7)
	c := CRR{Seed: 9, Betweenness: centrality.Options{Samples: 64, Seed: 10}}
	for _, p := range []float64{0.3, 0.6} {
		got, err := c.Reduce(g, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, err := seedCRRPhase2(c, g, p, c.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sameReduction(t, fmt.Sprintf("betweenness p=%v", p), got, want)
	}
}

// TestBM2MatchesSeedImplementation pins BM2 edge for edge to the map-based
// oracle. The second group is tie-heavy: each case queues 591–2,100 edges
// and over 99% of their gains tie with another, so the heap's tie order
// decides the output. Each group must see Phase 2 add edges, or the
// comparison would pin Phase 1 alone.
func TestBM2MatchesSeedImplementation(t *testing.T) {
	groups := []struct {
		graphs map[string]*graph.Graph
		ps     []float64
	}{
		{oracleGraphs(), []float64{0.2, 0.5, 0.8}},
		{map[string]*graph.Graph{
			"barabasi-albert-5000": gen.BarabasiAlbert(5000, 3, 7),
			"erdos-renyi-3000":     gen.ErdosRenyi(3000, 9000, 3),
		}, []float64{0.2, 0.3, 0.45, 0.7, 0.8}},
	}
	for gi, grp := range groups {
		added := 0
		for name, g := range grp.graphs {
			for _, b := range []BM2{
				{},
				{Order: matching.ScarceFirst},
				{Order: matching.DenseFirst},
			} {
				for _, p := range grp.ps {
					got, err := b.Reduce(g, p)
					if err != nil {
						t.Fatal(err)
					}
					want, n, err := seedBM2Reduce(b, g, p)
					if err != nil {
						t.Fatal(err)
					}
					added += n
					sameReduction(t, fmt.Sprintf("%s %+v p=%v", name, b, p), got, want)
				}
			}
		}
		if added == 0 {
			t.Errorf("group %d: Phase 2 added no edge in any case", gi)
		}
	}
}

func TestForestFireMatchesSeedImplementation(t *testing.T) {
	for name, g := range oracleGraphs() {
		for _, f := range []ForestFire{{Seed: 2}, {Seed: 4, BurnProb: 0.4}} {
			for _, p := range []float64{0.2, 0.5, 0.8} {
				got, err := f.Reduce(g, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := seedForestFire(f, g, p)
				if err != nil {
					t.Fatal(err)
				}
				sameReduction(t, fmt.Sprintf("%s burn=%v p=%v", name, f.BurnProb, p), got, want)
			}
		}
	}
}
