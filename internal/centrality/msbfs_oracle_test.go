package centrality

// Oracles and property tests for the MS-BFS kernels (Closeness,
// NodeBetweenness and the edge-dependency path behind
// EdgeBetweennessScores/Betweenness):
//
//   - closenessPerSource preserves the replaced one-BFS-per-node closeness
//     loop; the MS-BFS pivot accumulation reproduces it bit for bit in
//     exact mode because both compute the same integers.
//   - canonicalBetweenness is the serial replay of the batched Brandes
//     summation order (ascending nodes within a level, ascending CSR
//     neighbors, fixed shard discipline) for BOTH accumulators: node
//     dependencies node-outer/bit-inner, and edge dependencies one term
//     per (source, edge) — sigma(pred)·coeff(succ), succ the endpoint one
//     level deeper — folded per edge in shard-source order. The production
//     path must match it bit for bit at every worker count and batch
//     width.
//   - the seed map oracle (oracle_test.go) sums per-source dependencies in
//     queue order instead, so the MS-BFS scores match it only to float
//     tolerance — that cross-check bounds the reordering drift.

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// closenessPerSource is the replaced production kernel: one BFS per node,
// touched-entry reset, the Wasserman–Faust score written per source. It is
// the PerSource half of the Closeness benchmark pair and the bit-exact
// oracle for the MS-BFS path's exact mode.
func closenessPerSource(g *graph.Graph) []float64 {
	n := g.NumNodes()
	scores := make([]float64, n)
	if n <= 1 {
		return scores
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.NodeID, 0, n)
	for su := 0; su < n; su++ {
		s := graph.NodeID(su)
		queue = queue[:0]
		dist[s] = 0
		queue = append(queue, s)
		var sum int64
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			sum += int64(dist[v])
			for _, x := range g.Neighbors(v) {
				if dist[x] < 0 {
					dist[x] = dist[v] + 1
					queue = append(queue, x)
				}
			}
		}
		r := len(queue)
		if r > 1 && sum > 0 {
			rm1 := float64(r - 1)
			scores[s] = (rm1 / float64(n-1)) * (rm1 / float64(sum))
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return scores
}

// canonicalBrandesSource runs one canonical-order Brandes pass from src:
// distances by plain BFS, levels enumerated ascending by node id, sigma
// pulled and delta pushed over ascending CSR neighbors — exactly the
// per-(node, bit) summation order of the batched kernel's sweeps, whose
// delta pull meets each node's successors in the same ascending order this
// push delivers them. When edgeAcc is
// non-nil it also folds this source's edge dependencies: every undirected
// edge on the BFS DAG contributes exactly one term,
// sigma(pred)·((1+delta(succ))/sigma(succ)) with succ the endpoint one
// level deeper — the same operands and operations the production fold
// reads from its transformed coeff rows, so per (source, edge) the term is
// bit-equal, and adding terms source-by-source reproduces the batched
// fold's shard-source order at any batch width.
func canonicalBrandesSource(g *graph.Graph, src graph.NodeID, dist []int32, sigma, delta []float64, acc, edgeAcc []float64) {
	c := g.CSR()
	n := c.NumNodes()
	for i := range dist {
		dist[i] = -1
		sigma[i] = 0
		delta[i] = 0
	}
	dist[src] = 0
	queue := make([]graph.NodeID, 0, n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range c.Targets[c.Offsets[v]:c.Offsets[v+1]] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	maxd := int32(0)
	for _, v := range queue {
		if dist[v] > maxd {
			maxd = dist[v]
		}
	}
	levels := make([][]graph.NodeID, maxd+1)
	for u := graph.NodeID(0); int(u) < n; u++ {
		if dist[u] >= 0 {
			levels[dist[u]] = append(levels[dist[u]], u)
		}
	}
	sigma[src] = 1
	for d := int32(1); d <= maxd; d++ {
		for _, u := range levels[d] {
			for _, nb := range c.Targets[c.Offsets[u]:c.Offsets[u+1]] {
				if dist[nb] == d-1 {
					sigma[u] += sigma[nb]
				}
			}
		}
	}
	for d := maxd; d >= 1; d-- {
		for _, u := range levels[d] {
			coeff := (1 + delta[u]) / sigma[u]
			for _, nb := range c.Targets[c.Offsets[u]:c.Offsets[u+1]] {
				if dist[nb] == d-1 {
					delta[nb] += sigma[nb] * coeff
				}
			}
		}
	}
	if acc != nil {
		for u := 0; u < n; u++ {
			if dist[u] > 0 {
				acc[u] += delta[u]
			}
		}
	}
	if edgeAcc != nil {
		for e, uv := range g.Edges() {
			u, v := uv.U, uv.V
			du, dv := dist[u], dist[v]
			if du < 0 || dv < 0 {
				continue
			}
			switch {
			case dv == du+1:
				edgeAcc[e] += sigma[u] * ((1 + delta[v]) / sigma[v])
			case du == dv+1:
				edgeAcc[e] += sigma[v] * ((1 + delta[u]) / sigma[u])
			}
		}
	}
}

// canonicalBetweenness mirrors msbfsBetweenness serially: same source
// selection, same fixed shard assignment and in-order per-shard
// accumulation, same shard-order merge and scaling, over the canonical
// per-source pass above. Its node and edge results must equal the
// production path bit for bit at any Workers count and any Batch width.
func canonicalBetweenness(g *graph.Graph, opt Options) ([]float64, []float64) {
	n := g.NumNodes()
	nodes := make([]float64, n)
	edges := make([]float64, g.NumEdges())
	if n == 0 {
		return nodes, edges
	}
	srcs, scale := opt.sources(n)
	if len(srcs) == 0 {
		return nodes, edges
	}
	c := g.CSR()
	orderSourcesByLocality(c, srcs)
	shards := par.Shards
	if shards > len(srcs) {
		shards = len(srcs)
	}
	dist := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	type partial struct {
		nodes, edges []float64
	}
	parts := make([]partial, shards)
	for k := 0; k < shards; k++ {
		acc := make([]float64, n)
		edgeAcc := make([]float64, g.NumEdges())
		lo, hi := par.Block(len(srcs), shards, k)
		for _, s := range srcs[lo:hi] {
			canonicalBrandesSource(g, s, dist, sigma, delta, acc, edgeAcc)
		}
		parts[k] = partial{nodes: acc, edges: edgeAcc}
	}
	for _, p := range parts {
		for i, v := range p.nodes {
			nodes[i] += v
		}
		for i, v := range p.edges {
			edges[i] += v
		}
	}
	for i := range nodes {
		nodes[i] *= scale / 2
	}
	for i := range edges {
		edges[i] *= scale / 2
	}
	return nodes, edges
}

func propertyGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"BA", gen.BarabasiAlbert(250, 3, 7)},
		{"ER", gen.ErdosRenyi(250, 700, 11)},
		{"WS", gen.WattsStrogatz(250, 6, 0.1, 13)},
		{"Disconnected", graph.MustFromEdges(80, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 10, V: 11},
			{U: 20, V: 21}, {U: 21, V: 22}, {U: 22, V: 23},
		})},
	}
}

var propertyConfigs = struct {
	workers []int
	batches []int
}{[]int{1, 2, 4, 7}, []int{1, 8, 64}}

// TestClosenessBitIdenticalToPerSourceOracle is the migration property
// test: exact-mode MS-BFS closeness must reproduce the replaced per-source
// kernel bit for bit across graphs, worker counts and batch widths.
func TestClosenessBitIdenticalToPerSourceOracle(t *testing.T) {
	for _, tg := range propertyGraphs() {
		want := closenessPerSource(tg.g)
		for _, workers := range propertyConfigs.workers {
			for _, batch := range propertyConfigs.batches {
				got := Closeness(tg.g, Options{Workers: workers, Batch: batch})
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("%s workers=%d batch=%d node %d: %v != oracle %v",
							tg.name, workers, batch, u, got[u], want[u])
					}
				}
			}
		}
	}
}

// TestClosenessSampledDeterministicAndSane: the sampled estimator is
// bit-identical across worker counts and batch widths, oversampling
// degenerates to the exact bits, and on a connected graph the estimate
// lands near the exact score.
func TestClosenessSampledDeterministicAndSane(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 5)
	opt := Options{Samples: 128, Seed: 9, Workers: 1, Batch: 64}
	want := Closeness(g, opt)
	for _, workers := range propertyConfigs.workers {
		for _, batch := range propertyConfigs.batches {
			o := opt
			o.Workers = workers
			o.Batch = batch
			got := Closeness(g, o)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("workers=%d batch=%d node %d: %v != %v", workers, batch, u, got[u], want[u])
				}
			}
		}
	}
	exact := Closeness(g, Options{})
	over := Closeness(g, Options{Samples: 400, Seed: 3})
	for u := range exact {
		if over[u] != exact[u] {
			t.Fatalf("node %d: Samples=|V| %v != exact %v", u, over[u], exact[u])
		}
	}
	for u := range exact {
		if exact[u] == 0 {
			continue
		}
		if rel := math.Abs(want[u]-exact[u]) / exact[u]; rel > 0.5 {
			t.Fatalf("node %d: sampled %v vs exact %v (rel %.2f)", u, want[u], exact[u], rel)
		}
	}
}

// oracleCase is one input of the canonical-oracle tests.
type oracleCase struct {
	name string
	g    *graph.Graph
	opt  Options
}

// oracleCases are every property graph exact and sampled, plus one graph
// whose scratch outgrows a 2 MiB huge page at Batch 64 (3,000 nodes: 3.1
// MB of rows, 3.2 MB with the crossing record) but not at Batch 1 or 8, so
// in builds that map scratch one input pins the mapped and the heap path
// against the same oracle. It runs sampled only: exact, Batch 1 would run
// 3,000 traversals per configuration.
func oracleCases() []oracleCase {
	modes := []struct {
		name string
		opt  Options
	}{
		{"exact", Options{}},
		{"sampled", Options{Samples: 60, Seed: 3}},
		{"sampled-100", Options{Samples: 100, Seed: 3}},
	}
	var cases []oracleCase
	for _, tg := range propertyGraphs() {
		for _, mode := range modes {
			cases = append(cases, oracleCase{tg.name + "/" + mode.name, tg.g, mode.opt})
		}
	}
	return append(cases, oracleCase{"BA3000/sampled-100", gen.BarabasiAlbert(3000, 3, 7), Options{Samples: 100, Seed: 3}})
}

// TestNodeBetweennessBitIdenticalToCanonicalOracle pins the batched Brandes
// path to its canonical serial oracle bit for bit, exact and sampled,
// across graphs, worker counts and batch widths — the any-worker-count,
// any-batch-width determinism guarantee.
func TestNodeBetweennessBitIdenticalToCanonicalOracle(t *testing.T) {
	for _, tc := range oracleCases() {
		want, _ := canonicalBetweenness(tc.g, tc.opt)
		for _, workers := range propertyConfigs.workers {
			for _, batch := range propertyConfigs.batches {
				opt := tc.opt
				opt.Workers = workers
				opt.Batch = batch
				got := NodeBetweenness(tc.g, opt)
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("%s workers=%d batch=%d node %d: %v != oracle %v",
							tc.name, workers, batch, u, got[u], want[u])
					}
				}
			}
		}
	}
}

// TestEdgeBetweennessBitIdenticalToCanonicalOracle is the tentpole property
// of the edge-dependency path: EdgeBetweennessScores and both halves of the
// combined Betweenness must reproduce the canonical serial oracle bit for
// bit, exact and sampled, across graphs, worker counts and batch widths —
// proof that the slot-mask fold's summation tree is a function of (graph,
// Options) alone.
func TestEdgeBetweennessBitIdenticalToCanonicalOracle(t *testing.T) {
	for _, tc := range oracleCases() {
		wantN, wantE := canonicalBetweenness(tc.g, tc.opt)
		for _, workers := range propertyConfigs.workers {
			for _, batch := range propertyConfigs.batches {
				opt := tc.opt
				opt.Workers = workers
				opt.Batch = batch
				gotE := EdgeBetweennessScores(tc.g, opt)
				for i := range wantE {
					if gotE[i] != wantE[i] {
						t.Fatalf("%s workers=%d batch=%d edge %d %v: %v != oracle %v",
							tc.name, workers, batch, i, tc.g.Edges()[i], gotE[i], wantE[i])
					}
				}
				bothN, bothE := Betweenness(tc.g, opt)
				for u := range wantN {
					if bothN[u] != wantN[u] {
						t.Fatalf("%s workers=%d batch=%d Betweenness node %d: %v != oracle %v",
							tc.name, workers, batch, u, bothN[u], wantN[u])
					}
				}
				for i := range wantE {
					if bothE[i] != wantE[i] {
						t.Fatalf("%s workers=%d batch=%d Betweenness edge %d: %v != oracle %v",
							tc.name, workers, batch, i, bothE[i], wantE[i])
					}
				}
			}
		}
	}
}

// TestBetweennessNearSeedOracle bounds the canonical reordering against
// the seed map-indexed oracle for both accumulators: same quantities,
// different summation trees, so node and edge scores agree to tight float
// tolerance rather than bit-exactly.
func TestBetweennessNearSeedOracle(t *testing.T) {
	for _, tg := range propertyGraphs() {
		for _, opt := range []Options{{}, {Samples: 60, Seed: 3}} {
			gotN, gotE := Betweenness(tg.g, opt)
			wantN, wantE := oracleBoth(tg.g, opt, true, true)
			for u := range wantN {
				diff := math.Abs(gotN[u] - wantN[u])
				if diff > 1e-9*math.Max(1, math.Abs(wantN[u])) {
					t.Fatalf("%s samples=%d node %d: msbfs %v vs seed oracle %v",
						tg.name, opt.Samples, u, gotN[u], wantN[u])
				}
			}
			for i := range wantE {
				diff := math.Abs(gotE[i] - wantE[i])
				if diff > 1e-9*math.Max(1, math.Abs(wantE[i])) {
					t.Fatalf("%s samples=%d edge %d %v: msbfs %v vs seed oracle %v",
						tg.name, opt.Samples, i, tg.g.Edges()[i], gotE[i], wantE[i])
				}
			}
		}
	}
}

// TestBatchClampedToEngineWidth pins the documented Batch handling: zero,
// negative and over-wide values all select the engine's full 64-bit word,
// bit-identically — the same absorb-out-of-range convention Samples and
// Workers follow.
func TestBatchClampedToEngineWidth(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 17)
	opt := Options{Samples: 50, Seed: 7, Workers: 2}
	canonN, canonE := Betweenness(g, opt) // Batch: 0 → full width
	for _, batch := range []int{-5, 64, 200} {
		o := opt
		o.Batch = batch
		gotN, gotE := Betweenness(g, o)
		for u := range canonN {
			if gotN[u] != canonN[u] {
				t.Fatalf("Batch=%d node %d: %v != Batch=0 %v", batch, u, gotN[u], canonN[u])
			}
		}
		for i := range canonE {
			if gotE[i] != canonE[i] {
				t.Fatalf("Batch=%d edge %d: %v != Batch=0 %v", batch, i, gotE[i], canonE[i])
			}
		}
		if got := Closeness(g, o); got[0] != Closeness(g, opt)[0] {
			t.Fatalf("Batch=%d closeness drifted: %v != %v", batch, got[0], Closeness(g, opt)[0])
		}
	}
}

// TestMSBFSKernelsBitIdenticalWithObs pins the instrumentation
// non-perturbation guarantee for the MS-BFS kernels: a live recorder — with
// the flight recorder installed as the par slot observer, the full PR-9
// surface — must not change one output bit at any Workers × Batch, and the
// msbfs.* counters, histograms and flight rings must actually move. At
// 3,000 nodes the betweenness scratch exceeds 2 MiB at Batch 64 only, so
// in builds that map it both scratch paths run with obs on, and the span
// reports mapped bytes exactly there.
func TestMSBFSKernelsBitIdenticalWithObs(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 3, 11)
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 64} {
			opt := Options{Samples: 80, Seed: 5, Workers: workers, Batch: batch}
			wantC := Closeness(g, opt)
			wantB := NodeBetweenness(g, opt)
			wantE := EdgeBetweennessScores(g, opt)
			rec := obs.New("test")
			prev := par.SetSlotObserver(rec.Flight())
			o := opt
			o.Obs = rec.Root()
			gotC := Closeness(g, o)
			gotB := NodeBetweenness(g, o)
			gotE := EdgeBetweennessScores(g, o)
			par.SetSlotObserver(prev)
			rec.Root().End()
			for u := range wantC {
				if gotC[u] != wantC[u] {
					t.Fatalf("workers=%d batch=%d closeness node %d: %v with obs != %v", workers, batch, u, gotC[u], wantC[u])
				}
				if gotB[u] != wantB[u] {
					t.Fatalf("workers=%d batch=%d betweenness node %d: %v with obs != %v", workers, batch, u, gotB[u], wantB[u])
				}
			}
			for i := range wantE {
				if gotE[i] != wantE[i] {
					t.Fatalf("workers=%d batch=%d edge betweenness %d: %v with obs != %v", workers, batch, i, gotE[i], wantE[i])
				}
			}
			vals := rec.CounterValues()
			for _, name := range []string{
				"closeness.sources_done", "betweenness.sources_done",
				"msbfs.batches_done", "msbfs.words_scanned",
				"brandes.edge_folds",
			} {
				if vals[name] == 0 {
					t.Fatalf("workers=%d batch=%d: counter %q missing or zero: %v", workers, batch, name, vals)
				}
			}
			if vals["msbfs.topdown_levels"]+vals["msbfs.bottomup_levels"] == 0 {
				t.Fatalf("workers=%d batch=%d: no MS-BFS levels recorded: %v", workers, batch, vals)
			}
			hists := rec.HistogramValues()
			for _, name := range []string{"msbfs.batch_ns", "msbfs.batch_occupancy", "msbfs.level_width"} {
				if hists[name] == nil || hists[name].Count == 0 {
					t.Fatalf("workers=%d batch=%d: histogram %q missing or empty: %v", workers, batch, name, hists)
				}
			}
			if len(rec.Flight().Events()) == 0 {
				t.Fatalf("workers=%d batch=%d: flight ring stayed empty", workers, batch)
			}
			if mapped := vals["betweenness.mapped_bytes"]; (mapped > 0) != (scratchMaps && batch == 64) {
				t.Fatalf("workers=%d batch=%d: betweenness.mapped_bytes = %d in a build where mapping is %v",
					workers, batch, mapped, scratchMaps)
			}
		}
	}
}

// TestSampledBetweennessFillsBatches pins shard grouping: 256 sampled
// sources make 16-source shards, so four consecutive shards share each
// 64-wide traversal — four full batches rather than sixteen quarter-full
// ones, at one worker and at two. The call's 0.3 MB of scratch is under
// one huge page, so it stays on the heap and the span reports no bytes
// mapped.
func TestSampledBetweennessFillsBatches(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 11)
	for _, workers := range []int{1, 2} {
		rec := obs.New("test")
		EdgeBetweennessScores(g, Options{Samples: 256, Seed: 5, Workers: workers, Obs: rec.Root()})
		rec.Root().End()
		vals := rec.CounterValues()
		if got := vals["msbfs.batches_done"]; got != 4 {
			t.Fatalf("workers=%d: msbfs.batches_done = %d, want 4", workers, got)
		}
		if got, ok := vals["betweenness.mapped_bytes"]; !ok || got != 0 {
			t.Fatalf("workers=%d: betweenness.mapped_bytes = %d (recorded %v), want 0", workers, got, ok)
		}
		occ := rec.HistogramValues()["msbfs.batch_occupancy"]
		if occ == nil || occ.Count != 4 || occ.Sum != 4*64 {
			t.Fatalf("workers=%d: msbfs.batch_occupancy = %+v, want 4 observations of 64", workers, occ)
		}
	}
}

// TestBetweennessScratchIndependentOfWorkers pins the one-batch-at-a-time
// layout: a call allocates one traversal, one pair of rows and one crossing
// mask whatever the worker count — four workers allocate within 10% of one
// worker, where one row set per worker would allocate about four times as
// much — and nothing of it outlives the call. The rows and mask (2.1 MB
// here) leave the heap in builds that map them, so a call's allocation is
// its heap bytes plus the bytes its span reports mapped. A call on a tiny
// graph first replaces anything an earlier call might have left reachable;
// once the big call's result is all that is left and the collector has
// run, the heap has grown by the result and at most as much again, and
// resident memory has not kept the mapping.
func TestBetweennessScratchIndependentOfWorkers(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 7)
	g.CSR()
	opt := Options{Samples: 256, Seed: 1}
	// call runs one call and returns its scores and the bytes it mapped.
	call := func(workers int) ([]float64, int64) {
		rec := obs.New("test")
		o := opt
		o.Workers, o.Obs = workers, rec.Root()
		scores := EdgeBetweennessScores(g, o)
		return scores, rec.CounterValues()["betweenness.mapped_bytes"]
	}
	allocated := func(workers int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, mapped := call(workers)
		runtime.ReadMemStats(&after)
		if (mapped > 0) != scratchMaps {
			t.Fatalf("Workers=%d mapped %d bytes of scratch in a build where mapping is %v", workers, mapped, scratchMaps)
		}
		return after.TotalAlloc - before.TotalAlloc + uint64(mapped)
	}
	allocated(4) // warm up
	one, four := allocated(1), allocated(4)
	if float64(four) > 1.1*float64(one) {
		t.Fatalf("Workers=4 allocated %d bytes, Workers=1 %d: scratch grows with the worker count", four, one)
	}
	opt.Workers = 4
	EdgeBetweennessScores(gen.Path(4), opt)
	var before, after runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&before)
	resident := residentBytes(t)
	scores, mapped := call(4)
	debug.FreeOSMemory()
	runtime.ReadMemStats(&after)
	result := uint64(len(scores)) * 8
	if after.HeapAlloc > before.HeapAlloc+2*result {
		t.Fatalf("heap grew %d bytes across the call, result is %d: scratch outlived it",
			after.HeapAlloc-before.HeapAlloc, result)
	}
	if grew := residentBytes(t) - resident; mapped > 0 && grew > mapped/2 {
		t.Fatalf("resident memory grew %d bytes across a call that mapped %d: the mapping outlived it", grew, mapped)
	}
	runtime.KeepAlive(scores)
}
