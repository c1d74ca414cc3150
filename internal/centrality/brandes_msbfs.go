package centrality

// Batched node AND edge betweenness on the bit-parallel MS-BFS engine. One
// traversal carries up to 64 sources; the sigma (shortest-path count) and
// delta (dependency) phases then run per batch over the discovered levels,
// with one float64 per (node, batch bit) pair, replacing 64 per-source BFS
// relaunches — and 64 O(|V|) state re-zeroings — with one shared sweep plus
// touched-row clearing.
//
// Determinism. Sigma values are integer-valued floats (path counts), exact
// under addition in any order. Delta values are genuinely fractional, so
// their summation order must be a function of (graph, Options) alone:
//
//   - the traversal runs in canonical mode, so every level lists its nodes
//     ascending, and within a node the CSR neighbor scan ascends;
//   - sources keep a fixed par.Shards accumulation discipline: the source
//     list is put in a canonical locality order (a pure function of the
//     graph — see orderSourcesByLocality), split into par.Shards contiguous
//     blocks, each block folded IN ORDER by one owner, and the shard
//     partials merge in shard index order. One batch may carry several
//     consecutive shards' sources; each shard's bits fold into that shard's
//     own partial.
//
// Batch bits never mix — per-bit arithmetic is independent of how sources
// are grouped into batches — and the per-shard folds add each source's
// contribution to a node (or a canonical edge id) in shard-source order
// whatever the batch width, so both score arrays are bit-identical at any
// Workers count AND any Batch width.
//
// Edge dependencies need one extra care the node fold does not: a
// dependency crosses a specific DAG edge, and which direction an undirected
// edge is traversed differs per source. Folding contributions at the moment
// the backward sweep pushes them would order each edge's terms by level and
// by endpoint — an order that depends on how sources are grouped into
// batches. Instead the backward sweep only RECORDS each slot's crossing
// bits (slotMask), and a separate slot-outer fold walks the CSR in
// canonical order — owner node ascending, each edge at its smaller
// endpoint, crossing bits ascending — so every edge receives its per-source
// terms in shard-source order at any batch width. See DESIGN.md §10.4.
//
// The canonical order differs from the seed per-source queue order, so both
// kernels are pinned against their own canonical serial oracle (bit-exact)
// and against the seed map-indexed oracle within float tolerance; see
// oracle_test.go, msbfs_oracle_test.go and DESIGN.md §10.

import (
	"math/bits"
	"sort"

	"edgeshed/internal/graph"
	"edgeshed/internal/msbfs"
	"edgeshed/internal/par"
)

// orderSourcesByLocality reorders srcs in place by a canonical BFS rank:
// one serial BFS over the CSR from node 0 (restarting at the lowest
// unvisited id per component) ranks every node, and sources sort by that
// rank. Sources adjacent in the ordering are close in the graph, so the
// sources sharing one MS-BFS batch have correlated distance profiles: by
// the triangle inequality a node's levels across a batch spread at most the
// batch's diameter, which means fewer level memberships per node, fewer
// adjacency rescans in the sigma/delta sweeps, and denser crossing masks
// per scan. The rank is a pure function of the graph — no Workers, Batch or
// Samples input — so the ordering never threatens the determinism
// discipline; it only decides which sources travel together.
func orderSourcesByLocality(c *graph.CSR, srcs []graph.NodeID) {
	n := c.NumNodes()
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	queue := make([]graph.NodeID, 0, n)
	next := int32(0)
	for root := 0; root < n; root++ {
		if rank[root] >= 0 {
			continue
		}
		rank[root] = next
		next++
		queue = append(queue[:0], graph.NodeID(root))
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range c.Targets[c.Offsets[u]:c.Offsets[u+1]] {
				if rank[v] < 0 {
					rank[v] = next
					next++
					queue = append(queue, v)
				}
			}
		}
	}
	sort.Slice(srcs, func(i, j int) bool { return rank[srcs[i]] < rank[srcs[j]] })
}

// batchedBrandes is the per-worker scratch of the MS-BFS Brandes pass:
// sigma and delta hold one float64 per (node, batch bit) pair — row u is
// sigma[u*width : (u+1)*width] — and lvl is the dense word array holding,
// while one level is processed, each node's first-arrival bits at the level
// below it. Rows are cleared lazily: only nodes the traversal visited.
type batchedBrandes struct {
	c     *graph.CSR
	tr    *msbfs.Traversal
	width int
	sigma []float64
	delta []float64
	lvl   []uint64
	// srcMask marks each batch source's own row bit, excluded from the fold
	// (a source accumulates no dependency on itself); coeff is the per-bit
	// (1+delta)/sigma row of the node being expanded backward.
	srcMask []uint64
	coeff   []float64
	// slotMask is the edge path's crossing record, one word per CSR slot:
	// bit s is set on slot k (owned by node u, targeting v) when the
	// backward sweep pushed source s's dependency across the DAG edge v→u,
	// i.e. u is the deeper endpoint for source s. nil on the node-only
	// path, and cleared back to zero by the edge fold itself.
	slotMask []uint64
	// edgeFolds tallies edge dependency terms folded across every run, for
	// the "brandes.edge_folds" counter. Plain local state — the driver folds
	// it into the counter once per worker, a no-op when observability is off.
	edgeFolds int64
}

// newBatchedBrandes returns scratch for width-wide batches over c. The
// slotMask crossing record (8 bytes per CSR slot) is only allocated when
// the caller wants edge scores.
func newBatchedBrandes(c *graph.CSR, width int, wantEdges bool) *batchedBrandes {
	n := c.NumNodes()
	st := &batchedBrandes{
		c:       c,
		tr:      msbfs.New(c, width, true),
		width:   width,
		sigma:   make([]float64, n*width),
		delta:   make([]float64, n*width),
		lvl:     make([]uint64, n),
		srcMask: make([]uint64, n),
		coeff:   make([]float64, width),
	}
	if wantEdges {
		st.slotMask = make([]uint64, c.NumSlots())
	}
	return st
}

// shardRange is the slice of one batch that belongs to one accumulation
// shard: batch bits [lo, hi), whose dependencies fold into the shard's
// partials nodes (per node) and edges (per canonical edge id). A batch's
// ranges are contiguous, ascending and cover bits [0, nb); either partial
// may be nil, consistently across the ranges.
type shardRange struct {
	lo, hi       int
	nodes, edges []float64
}

// mask returns the range's batch bits as a word.
func (r *shardRange) mask() uint64 {
	return ^uint64(0) >> uint(64-(r.hi-r.lo)) << uint(r.lo)
}

// run traverses one batch and folds every source's dependencies into its
// own shard's partials, as ranges assigns the batch bits: forward sigma
// pull per level ascending, backward delta push per level descending, both
// in the canonical order the package comment describes, then
// touched-rows-only folds and clears.
func (st *batchedBrandes) run(srcs []graph.NodeID, ranges []shardRange) {
	tr, W := st.tr, st.width
	tr.Run(srcs)
	offsets, targets := st.c.Offsets, st.c.Targets
	sigma, lvl := st.sigma, st.lvl

	nb := len(srcs)
	// full is the ragged-batch occupancy mask: a neighbor mask equal to it
	// means every batch bit crosses, unlocking the straight row walks below.
	full := ^uint64(0) >> uint(64-nb)
	for i, s := range srcs {
		sigma[int(s)*W+i] = 1
		st.srcMask[s] |= uint64(1) << uint(i)
	}
	numLevels := tr.NumLevels()
	// Forward: each level-d arrival pulls sigma from its distance-(d-1)
	// neighbors, neighbor-outer so every bit's contributions arrive in
	// ascending CSR order. Per-bit sums are independent, so when every batch
	// bit crosses the bit-scan loop collapses to a straight row walk with
	// identical bits.
	for d := 1; d < numLevels; d++ {
		pn, pw := tr.Level(d - 1)
		for i, v := range pn {
			lvl[v] = pw[i]
		}
		nodes, words := tr.Level(d)
		for i, u := range nodes {
			wu := words[i]
			row := sigma[int(u)*W : int(u)*W+W]
			for _, nbr := range targets[offsets[u]:offsets[u+1]] {
				m := wu & lvl[nbr]
				if m == 0 {
					continue
				}
				nrow := sigma[int(nbr)*W : int(nbr)*W+W]
				if m == full {
					for s, v := range nrow[:nb] {
						row[s] += v
					}
					continue
				}
				for m != 0 {
					s := bits.TrailingZeros64(m)
					m &= m - 1
					row[s] += nrow[s]
				}
			}
		}
		for _, v := range pn {
			lvl[v] = 0
		}
	}
	// Backward: levels descending; within a level nodes ascend (canonical
	// traversal order) and each pushes its dependency to its
	// distance-(d-1) predecessors in ascending CSR order. All of a
	// predecessor's successors for one bit sit in a single level, so for
	// every (node, bit) slot the additions happen in ascending successor
	// order — the order the serial canonical oracle replays. The edge
	// variant additionally records each slot's crossing bits for the fold.
	if ranges[0].edges != nil {
		st.backwardEdges(numLevels, nb, full, ranges[0].nodes == nil)
		st.foldEdges(nb, ranges)
	} else {
		st.backward(numLevels, nb, full)
		st.foldNodes(nb, ranges)
	}
	for _, s := range srcs {
		st.srcMask[s] = 0
	}
}

// backward is the node-only dependency sweep (no crossing record).
func (st *batchedBrandes) backward(numLevels, nb int, full uint64) {
	tr, W := st.tr, st.width
	offsets, targets := st.c.Offsets, st.c.Targets
	sigma, delta, lvl := st.sigma, st.delta, st.lvl
	for d := numLevels - 1; d >= 1; d-- {
		pn, pw := tr.Level(d - 1)
		for i, v := range pn {
			lvl[v] = pw[i]
		}
		nodes, words := tr.Level(d)
		for i, u := range nodes {
			wu := words[i]
			srow := sigma[int(u)*W : int(u)*W+W]
			drow := delta[int(u)*W : int(u)*W+W]
			m := wu
			for m != 0 {
				s := bits.TrailingZeros64(m)
				m &= m - 1
				st.coeff[s] = (1 + drow[s]) / srow[s]
			}
			for _, nbr := range targets[offsets[u]:offsets[u+1]] {
				mm := wu & lvl[nbr]
				if mm == 0 {
					continue
				}
				nsrow := sigma[int(nbr)*W : int(nbr)*W+W]
				ndrow := delta[int(nbr)*W : int(nbr)*W+W]
				if mm == full {
					for s, v := range nsrow[:nb] {
						ndrow[s] += v * st.coeff[s]
					}
					continue
				}
				for mm != 0 {
					s := bits.TrailingZeros64(mm)
					mm &= mm - 1
					ndrow[s] += nsrow[s] * st.coeff[s]
				}
			}
		}
		for _, v := range pn {
			lvl[v] = 0
		}
	}
}

// backwardEdges is the dependency sweep with the crossing record: identical
// per-(node, bit) arithmetic to backward, plus slotMask[k] |= mm on every
// CSR slot a dependency crosses. The record is direction-resolved — slot k
// belongs to the successor (deeper) endpoint — which is exactly what the
// edge fold needs to pick sigma(pred)·coeff(succ) per bit.
//
// With inplace set (the edges-only path, where no caller needs the raw
// delta sums), each visited delta slot is overwritten with its coefficient
// (1+delta)/sigma the moment the sweep expands its node: by then bit s of
// node u receives no further pushes — its successors all sit one level
// deeper and were expanded earlier in the descending sweep — so the fold
// can skip its own transform pass. The value is computed from the same
// operands either way; only where it is stored changes, so scores are
// bit-identical with the flag on or off.
func (st *batchedBrandes) backwardEdges(numLevels, nb int, full uint64, inplace bool) {
	tr, W := st.tr, st.width
	offsets, targets := st.c.Offsets, st.c.Targets
	sigma, delta, lvl := st.sigma, st.delta, st.lvl
	slotMask := st.slotMask
	for d := numLevels - 1; d >= 1; d-- {
		pn, pw := tr.Level(d - 1)
		for i, v := range pn {
			lvl[v] = pw[i]
		}
		nodes, words := tr.Level(d)
		for i, u := range nodes {
			wu := words[i]
			srow := sigma[int(u)*W : int(u)*W+W]
			drow := delta[int(u)*W : int(u)*W+W]
			coeff := st.coeff
			if inplace {
				coeff = drow
			}
			for m := wu; m != 0; {
				s := bits.TrailingZeros64(m)
				m &= m - 1
				coeff[s] = (1 + drow[s]) / srow[s]
			}
			lo, hi := offsets[u], offsets[u+1]
			for k, nbr := range targets[lo:hi] {
				mm := wu & lvl[nbr]
				if mm == 0 {
					continue
				}
				slotMask[lo+int32(k)] |= mm
				nsrow := sigma[int(nbr)*W : int(nbr)*W+W]
				ndrow := delta[int(nbr)*W : int(nbr)*W+W]
				if mm == full {
					for s, v := range nsrow[:nb] {
						ndrow[s] += v * coeff[s]
					}
					continue
				}
				for mm != 0 {
					s := bits.TrailingZeros64(mm)
					mm &= mm - 1
					ndrow[s] += nsrow[s] * coeff[s]
				}
			}
		}
		for _, v := range pn {
			lvl[v] = 0
		}
	}
}

// foldNodes folds visited rows into their shards' partials — node-outer,
// bit-inner ascending, each bit into its own range's partial, so each node
// receives every shard's per-source contributions in shard-source order
// regardless of batch width (unreached slots add +0.0, a bitwise no-op on
// the non-negative accumulator) — and clears them for the next batch. Only
// the first nb slots of a row are ever written.
func (st *batchedBrandes) foldNodes(nb int, ranges []shardRange) {
	W := st.width
	sigma, delta := st.sigma, st.delta
	visit := st.tr.Visit()
	for u, vw := range visit {
		if vw == 0 {
			continue
		}
		srow := sigma[u*W : u*W+nb]
		drow := delta[u*W : u*W+nb]
		st.foldNodeRow(u, drow, ranges)
		clear(srow)
		clear(drow)
	}
}

// foldNodeRow adds node u's dependency row into its shards' partials, bits
// ascending, skipping u's own source bits.
func (st *batchedBrandes) foldNodeRow(u int, drow []float64, ranges []shardRange) {
	skip := st.srcMask[u]
	for i := range ranges {
		r := &ranges[i]
		acc := r.nodes[u]
		for s := r.lo; s < r.hi; s++ {
			if skip>>uint(s)&1 == 0 {
				acc += drow[s]
			}
		}
		r.nodes[u] = acc
	}
}

// foldEdges is the edge-path epilogue, two sweeps:
//
// Sweep 1 runs only when node scores are also wanted: it folds node
// dependencies in exactly foldNodes' order, then transforms each visited
// delta slot in place into its coefficient (1+delta)/sigma — computed once
// per (node, bit), the same operands and operations the serial oracle
// replays per edge term. On the edges-only path backwardEdges already
// stored the coefficients in place (same arithmetic), so the sweep is
// skipped entirely.
//
// Sweep 2 walks the CSR in canonical order — owner node ascending, each
// edge processed at its smaller endpoint — and adds, crossing-bits
// ascending, sigma(pred)·coeff(succ) into the slot's canonical edge id.
// The union of the slot's mask and its mate's covers every source whose
// dependency crossed the edge in either direction, each exactly once, so
// per edge the terms arrive in shard-source order at any batch width. Each
// range's bits fold into that range's shard partial, so a batch spanning
// several shards keeps every shard's order intact.
// Scratch is retired in the same pass: both slot words are cleared when an
// edge is folded, and a node's rows are cleared when its slots are done —
// safe because iteration u only reads rows of u and of neighbors above it.
func (st *batchedBrandes) foldEdges(nb int, ranges []shardRange) {
	W := st.width
	c := st.c
	offsets, targets, edgeID, mate := c.Offsets, c.Targets, c.EdgeID, c.Mate
	sigma, delta, slotMask := st.sigma, st.delta, st.slotMask
	visit := st.tr.Visit()
	if ranges[0].nodes != nil {
		for u, vw := range visit {
			if vw == 0 {
				continue
			}
			srow := sigma[u*W : u*W+W]
			drow := delta[u*W : u*W+W]
			st.foldNodeRow(u, drow, ranges)
			for m := vw; m != 0; {
				s := bits.TrailingZeros64(m)
				m &= m - 1
				drow[s] = (1 + drow[s]) / srow[s]
			}
		}
	}
	var masks [64]uint64
	for i := range ranges {
		masks[i] = ranges[i].mask()
	}
	folds := int64(0)
	for u, vw := range visit {
		if vw == 0 {
			continue
		}
		usig := sigma[u*W : u*W+W]
		ucoe := delta[u*W : u*W+W]
		lo, hi := offsets[u], offsets[u+1]
		for k := lo; k < hi; k++ {
			v := targets[k]
			if int(v) <= u {
				// The edge is folded (and its scratch cleared) at its
				// smaller endpoint; this slot's mask was already retired
				// through its mate.
				continue
			}
			m1 := slotMask[k]       // bits where u is the successor (v → u crossing)
			m2 := slotMask[mate[k]] // bits where v is the successor (u → v crossing)
			if m1|m2 == 0 {
				continue
			}
			e := edgeID[k]
			vsig := sigma[int(v)*W : int(v)*W+W]
			vcoe := delta[int(v)*W : int(v)*W+W]
			for i, rest := 0, m1|m2; rest != 0; i++ {
				mk := masks[i]
				r1, r2 := m1&mk, m2&mk
				un := r1 | r2
				if un == 0 {
					continue
				}
				rest &^= mk
				acc := ranges[i].edges[e]
				// Locality-ordered batches mostly agree on an edge's
				// direction (which endpoint is deeper), so the
				// single-direction cases get branch-free loops. All three
				// walk the same bits ascending and add the same per-bit
				// term, so the sums are bit-identical.
				switch {
				case r2 == 0:
					for un != 0 {
						s := bits.TrailingZeros64(un)
						un &= un - 1
						acc += vsig[s] * ucoe[s]
					}
				case r1 == 0:
					for un != 0 {
						s := bits.TrailingZeros64(un)
						un &= un - 1
						acc += usig[s] * vcoe[s]
					}
				default:
					for un != 0 {
						s := bits.TrailingZeros64(un)
						un &= un - 1
						if r1>>uint(s)&1 != 0 {
							acc += vsig[s] * ucoe[s]
						} else {
							acc += usig[s] * vcoe[s]
						}
					}
				}
				ranges[i].edges[e] = acc
			}
			folds += int64(bits.OnesCount64(m1 | m2))
			slotMask[k] = 0
			slotMask[mate[k]] = 0
		}
		for s := 0; s < nb; s++ {
			usig[s] = 0
			ucoe[s] = 0
		}
	}
	st.edgeFolds += folds
}

// msbfsBetweenness is the batched driver behind NodeBetweenness,
// EdgeBetweennessScores and Betweenness: Options.sources picks the sources,
// the locality order splits them into par.Shards contiguous blocks, and the
// blocks merge in block order before scaling.
//
// The unit of work is a shard group: k consecutive shards, k as large as
// fits one batch (when shards are narrower than a batch) without leaving a
// worker idle. Groups go to workers by stride; a worker batches a group's
// sources in order, each batch split into one bit range per shard it
// touches, so a batch carries several shards' sources while each shard
// still folds its own sources in order into its own partial. Grouping only
// decides which sources share a traversal, never a summation order.
func msbfsBetweenness(g *graph.Graph, opt Options, wantNodes, wantEdges bool) ([]float64, []float64) {
	n, m := g.NumNodes(), g.NumEdges()
	if n == 0 {
		// Defensive: nothing to traverse regardless of Samples/Workers.
		return zeros(wantNodes, n), zeros(wantEdges, m)
	}
	srcs, scale := opt.sources(n)
	if len(srcs) == 0 {
		return zeros(wantNodes, n), zeros(wantEdges, m)
	}
	c := g.CSR()
	orderSourcesByLocality(c, srcs)
	width := msbfs.Width(opt.Batch)
	shards := par.Shards
	if shards > len(srcs) {
		shards = len(srcs)
	}
	workers := par.Workers(opt.Workers, shards)
	// No shard holds more than perShard sources, so k of them fit one batch;
	// k <= shards/workers keeps at least one group per worker.
	perShard := (len(srcs) + shards - 1) / shards
	k := max(1, min(width/perShard, shards/workers))
	groups := (shards + k - 1) / k
	sp := opt.Obs.Start("betweenness")
	defer sp.End()
	sp.SetTotal(int64(len(srcs)))
	srcCtr := sp.Counter("betweenness.sources_done")
	foldCtr := sp.Counter("brandes.edge_folds")
	meter := msbfs.NewMeter(sp, "betweenness")
	nodeParts := make([][]float64, shards)
	edgeParts := make([][]float64, shards)
	par.Run(workers, func(w int) {
		var done int64
		var ranges []shardRange
		st := newBatchedBrandes(c, width, wantEdges)
		wm := meter.Worker(w, st.tr)
		for gi := w; gi < groups; gi += workers {
			first, last := gi*k, min(gi*k+k, shards)
			for s := first; s < last; s++ {
				nodeParts[s] = zeros(wantNodes, n)
				edgeParts[s] = zeros(wantEdges, m)
			}
			glo, _ := par.Block(len(srcs), shards, first)
			_, ghi := par.Block(len(srcs), shards, last-1)
			for lo := glo; lo < ghi; lo += width {
				hi := min(lo+width, ghi)
				ranges = ranges[:0]
				for s := first; s < last; s++ {
					blo, bhi := par.Block(len(srcs), shards, s)
					if blo, bhi = max(blo, lo), min(bhi, hi); blo < bhi {
						ranges = append(ranges, shardRange{
							lo: blo - lo, hi: bhi - lo,
							nodes: nodeParts[s], edges: edgeParts[s],
						})
					}
				}
				st.run(srcs[lo:hi], ranges)
				wm.Batch(hi - lo)
				done += int64(hi - lo)
				sp.Done(int64(hi - lo))
			}
		}
		srcCtr.AddAt(w, done)
		foldCtr.AddAt(w, st.edgeFolds)
		wm.End()
	})
	return mergeShards(nodeParts, scale), mergeShards(edgeParts, scale)
}

// zeros returns a zeroed slice of size floats when want is set, else nil.
func zeros(want bool, size int) []float64 {
	if !want {
		return nil
	}
	return make([]float64, size)
}

// mergeShards sums the shard partials into parts[0] in shard order and
// scales the total; nil partials (an unwanted accumulator) give nil. Adding
// into the first partial instead of a fresh zeroed array gives the same
// bits — 0 + x is exact for the non-negative partials — at one array less.
func mergeShards(parts [][]float64, scale float64) []float64 {
	acc := parts[0]
	for _, p := range parts[1:] {
		for i, v := range p {
			acc[i] += v
		}
	}
	// Each unordered pair is seen from both endpoints in an exact run:
	// halve. Sampled runs estimate the same quantity via scale/2.
	for i := range acc {
		acc[i] *= scale / 2
	}
	return acc
}
