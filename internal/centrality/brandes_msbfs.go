package centrality

// Batched node AND edge betweenness on the bit-parallel MS-BFS engine. One
// traversal carries up to 64 sources; the sigma (shortest-path count) and
// delta (dependency) phases then run per batch over the discovered levels,
// with one float64 per (node, batch bit) pair, replacing 64 per-source BFS
// relaunches — and 64 O(|V|) state re-zeroings — with one shared sweep plus
// touched-row clearing.
//
// One batch runs at a time, with every worker inside it: the traversal is
// serial, and each level of both sweeps, then the folds, run as team
// regions split into static blocks. So one traversal, one pair of rows and
// one crossing record exist whatever the worker count.
//
// Determinism. Sigma values are integer-valued floats (path counts), exact
// under addition in any order. Delta values are genuinely fractional, so
// their summation order must be a function of (graph, Options) alone:
//
//   - the traversal runs in canonical mode, so every level lists its nodes
//     ascending, and within a node the CSR neighbor scan ascends;
//   - both sweeps pull: a node sums its own row from its neighbors in CSR
//     order, so how a level splits into worker blocks never reaches a sum;
//   - sources keep a fixed par.Shards accumulation discipline: the source
//     list is put in a canonical locality order (a pure function of the
//     graph — see orderSourcesByLocality), split into par.Shards contiguous
//     blocks, each block folded IN ORDER into its own partial, and the
//     shard partials merge in shard index order. One batch may carry
//     several consecutive shards' sources and a shard may span several
//     batches; each bit's terms go to its own shard's partial.
//
// Batch bits never mix — per-bit arithmetic is independent of how sources
// are grouped into batches — and the per-shard folds add each source's
// contribution to a node (or a canonical edge id) in shard-source order
// whatever the batch width, so both score arrays are bit-identical at any
// Workers count AND any Batch width.
//
// Edge dependencies need one extra care the node fold does not: a
// dependency crosses a specific DAG edge, and which direction an undirected
// edge is traversed differs per source. Folding contributions as the
// sweeps meet them would order each edge's terms by level and by endpoint
// — an order that depends on how sources are grouped into batches. Instead
// the forward pull only RECORDS each edge's crossing bits, two words per
// canonical edge id (cross), and a separate fold walks the edge ids
// ascending, crossing bits ascending, so every edge receives its
// per-source terms in shard-source order at any batch width. See
// DESIGN.md §10.4.
//
// The canonical order differs from the seed per-source queue order, so both
// kernels are pinned against their own canonical serial oracle (bit-exact)
// and against the seed map-indexed oracle within float tolerance; see
// oracle_test.go, msbfs_oracle_test.go and DESIGN.md §10.

import (
	"math/bits"
	"sort"
	"time"
	"unsafe"

	"edgeshed/internal/graph"
	"edgeshed/internal/msbfs"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// orderSourcesByLocality reorders srcs in place by a canonical BFS rank:
// one serial BFS over the CSR from node 0 (restarting at the lowest
// unvisited id per component) ranks every node, and sources sort by that
// rank. Sources adjacent in the ordering are close in the graph, so the
// sources sharing one MS-BFS batch have correlated distance profiles: by
// the triangle inequality a node's levels across a batch spread at most the
// batch's diameter, which means fewer level memberships per node, fewer
// adjacency rescans in the sigma/delta sweeps, and denser crossing words
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

// shardRange is the slice of one batch that belongs to one accumulation
// shard: batch bits [lo, hi), as a word in mask. closes is set when the
// shard's last source is in this batch, so its partial merges into the
// accumulator as soon as the bits are folded. A batch's ranges are
// contiguous, ascending and cover bits [0, nb).
type shardRange struct {
	lo, hi int
	mask   uint64
	closes bool
}

// The kinds of team region a batch runs, in order: one forward and one
// backward region per BFS level, then the folds, then the row clearing.
const (
	regionForward = iota
	regionBackward
	regionFoldNodes
	regionFoldEdges
	regionClear
)

// pad spaces per-worker tallies a cache line apart.
const pad = 8

// A multi-worker region is cut into up to blocksPerWorker static blocks
// per worker — enough that claiming them evens out uneven costs — but
// never into blocks of fewer than minBlockSlots adjacency slots: a region
// too small for two blocks runs on the calling worker alone, so small
// graphs and thin levels pay no synchronization.
const (
	blocksPerWorker = 16
	minBlockSlots   = 256
)

// brandes is the state of one betweenness call, shared by every team
// worker. sigma and delta hold one float64 per (node, batch bit) pair — row
// u is sigma[u*width : (u+1)*width] — and exist once, whatever the worker
// count. Rows are cleared lazily: only nodes the traversal visited.
type brandes struct {
	c       *graph.CSR
	edges   []graph.Edge
	tr      *msbfs.Traversal
	team    *par.Team
	workers int
	width   int

	// mem is the mapping that holds sigma, delta and cross (see
	// newScratch), unmapped when the call returns; nil when they are on
	// the heap.
	mem          []byte
	sigma, delta []float64
	// coef is the row array that holds the coefficient (1+delta)/sigma of
	// every settled (node, bit) slot: delta on the edges-only path, which
	// needs no raw delta sums, and sigma on the node-only path, which needs
	// no sigma once a slot is settled. nil on the combined path, which
	// keeps both raw and recomputes the coefficient from the same operands
	// wherever it needs it.
	coef []float64
	// lvl holds each node's batch bits at one BFS level; level d lives in
	// lvl[d%3]. A sweep region at level d reads level d±1 while writing
	// level d, and entries left over from other levels are never cleared
	// mid-batch: they are three levels off, and a neighbor's bits lie
	// within one level of each other, so masking can never pick them up.
	lvl [3][]uint64
	// srcMask marks each batch source's own row bit, excluded from the
	// node fold (a source accumulates no dependency on itself).
	srcMask []uint64
	// cross is the edge paths' crossing record, two words per canonical
	// edge id e = {U, V}, U < V: bit s of word 2e is set when source s's
	// shortest paths cross the edge from V into U (U is the deeper
	// endpoint for source s), and bit s of word 2e+1 when they cross from
	// U into V. The forward pull writes it, since it meets exactly these
	// crossings, each as the deeper endpoint pulling; that endpoint is a
	// word's only writer, and a node pulls once per region. nil on the
	// node-only path, and cleared back to zero by the edge fold.
	cross []uint64

	// The accumulators: acc holds the merged shards, part the partial of
	// the shard still open across a batch boundary (nil when no shard
	// spans two batches). Either pair is nil when unwanted.
	nodeAcc, nodePart, edgeAcc, edgePart []float64
	// blocks is how many static blocks every region is cut into; the team
	// hands them to whichever worker is free, so the hubs that come first
	// in preferential-attachment graphs, or a worker the machine
	// preempts, do not hold a region up.
	blocks int

	// The current batch: nb sources, full the mask of all nb bits, its
	// shard ranges; cont is set when ranges[0]'s shard began in an earlier
	// batch, open when the last range's shard continues into the next.
	nb         int
	full       uint64
	ranges     []shardRange
	cont, open bool
	// levelOff[d] is the index of level d's first entry among all levels,
	// and slotCum[i] counts the adjacency slots of entries before i: the
	// sweeps cut each level into blocks of equal slots from them. Unused
	// when every region is a single block.
	levelOff, slotCum []int

	// The current region: its kind, level and block count.
	kind, d, nblk int

	// Per-worker tallies, pad apart: edge terms folded, and — only when
	// observability is on — nanoseconds spent working.
	folds, busy []int64
	// run is work as a func value, made once per call.
	run func(w, i int)
}

// msbfsBetweenness is the batched driver behind NodeBetweenness,
// EdgeBetweennessScores and Betweenness: Options.sources picks the sources,
// the locality order fixes their sequence and their par.Shards blocks, and
// the batches run in that sequence, one at a time, every worker inside
// each. A shard's partial merges into the accumulator, in shard order, the
// moment its last batch is folded; the total is scaled at the end.
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
	shards := min(par.Shards, len(srcs))
	// A partial outlives its batch only when some shard spans two batches.
	spans := false
	for s := 0; s < shards; s++ {
		lo, hi := par.Block(len(srcs), shards, s)
		spans = spans || lo/width != (hi-1)/width
	}
	sp := opt.Obs.Start("betweenness")
	defer sp.End()
	sp.SetTotal(int64(len(srcs)))

	b := newBrandes(g, par.Workers(opt.Workers, n), width, wantNodes, wantEdges, spans, sp.Enabled())
	defer b.close()
	wm := msbfs.NewMeter(sp, "betweenness").Worker(0, b.tr)
	for lo := 0; lo < len(srcs); lo += width {
		hi := min(lo+width, len(srcs))
		b.setRanges(len(srcs), shards, lo, hi)
		b.batch(srcs[lo:hi])
		wm.Batch(hi - lo)
		sp.Done(int64(hi - lo))
	}
	// Each unordered pair is seen from both endpoints in an exact run:
	// halve. Sampled runs estimate the same quantity via scale/2.
	for _, acc := range [2][]float64{b.nodeAcc, b.edgeAcc} {
		for i := range acc {
			acc[i] *= scale / 2
		}
	}
	b.report(sp, &wm, len(srcs))
	return b.nodeAcc, b.edgeAcc
}

// newBrandes allocates one call's state: a team of workers, one traversal
// and one pair of width-wide rows, the crossing record when edge scores
// are wanted, and the accumulators — with a partial beside each when a
// shard spans batches. timed turns on the per-worker busy clock.
func newBrandes(g *graph.Graph, workers, width int, wantNodes, wantEdges, spans, timed bool) *brandes {
	c, edges := g.CSR(), g.Edges()
	n, m := c.NumNodes(), len(edges)
	crossWords := 0
	if wantEdges {
		crossWords = 2 * m
	}
	b := &brandes{
		c:        c,
		edges:    edges,
		tr:       msbfs.New(c, width, true),
		team:     par.NewTeam(workers),
		workers:  workers,
		width:    width,
		srcMask:  make([]uint64, n),
		nodeAcc:  zeros(wantNodes, n),
		nodePart: zeros(wantNodes && spans, n),
		edgeAcc:  zeros(wantEdges, m),
		edgePart: zeros(wantEdges && spans, m),
		folds:    make([]int64, workers*pad),
	}
	b.sigma, b.delta, b.cross, b.mem = newScratch(n*width, crossWords)
	for i := range b.lvl {
		b.lvl[i] = make([]uint64, n)
	}
	switch {
	case wantNodes && wantEdges:
	case wantEdges:
		b.coef = b.delta
	default:
		b.coef = b.sigma
	}
	b.blocks = max(1, min(workers*blocksPerWorker, c.NumSlots()/minBlockSlots))
	if timed {
		b.busy = make([]int64, workers*pad)
	}
	b.run = b.work
	return b
}

// newScratch allocates the σ and δ/coefficient rows, rows floats each, and
// a crossing record of words words (nil for none), zeroed. Together they
// are the bulk of a call's memory, so they come from one mapping of their
// own where mapScratch gives one (mem) and leave the process's resident
// memory when close unmaps it, instead of lingering as garbage until the
// next collection. Otherwise they are three heap slices and mem is nil.
func newScratch(rows, words int) (sigma, delta []float64, cross []uint64, mem []byte) {
	mem = mapScratch(8 * (2*rows + words))
	if mem == nil {
		if words > 0 {
			cross = make([]uint64, words)
		}
		return make([]float64, rows), make([]float64, rows), cross, nil
	}
	base := unsafe.Pointer(unsafe.SliceData(mem))
	f := unsafe.Slice((*float64)(base), 2*rows)
	if words > 0 {
		cross = unsafe.Slice((*uint64)(unsafe.Add(base, 16*rows)), words)
	}
	return f[:rows:rows], f[rows:], cross, mem
}

// close stops the team, then unmaps the scratch: no worker can touch a
// row once Close has returned. The slices into it are dropped first, so no
// live pointer is left into a range the runtime may map again.
func (b *brandes) close() {
	b.team.Close()
	mem := b.mem
	b.sigma, b.delta, b.coef, b.cross, b.mem = nil, nil, nil, nil, nil
	unmapScratch(mem)
}

// setRanges splits batch [lo, hi) of a total-source list into its shards'
// bit ranges.
func (b *brandes) setRanges(total, shards, lo, hi int) {
	b.ranges = b.ranges[:0]
	for s := 0; s < shards; s++ {
		blo, bhi := par.Block(total, shards, s)
		if bhi <= lo || blo >= hi {
			continue
		}
		if len(b.ranges) == 0 {
			b.cont = blo < lo
		}
		r := shardRange{lo: max(blo, lo) - lo, hi: min(bhi, hi) - lo, closes: bhi <= hi}
		r.mask = ^uint64(0) >> uint(64-(r.hi-r.lo)) << uint(r.lo)
		b.ranges = append(b.ranges, r)
	}
	b.open = !b.ranges[len(b.ranges)-1].closes
}

// batch traverses one batch and folds every source's dependencies: forward
// sigma pull per level ascending, backward delta pull per level
// descending, then the folds. Only the traversal and a little bookkeeping
// run serially; every other step is a team region.
func (b *brandes) batch(srcs []graph.NodeID) {
	var t0 time.Time
	if b.busy != nil {
		t0 = time.Now()
	}
	tr, W := b.tr, b.width
	tr.Run(srcs)
	b.nb = len(srcs)
	// full is the ragged-batch occupancy mask: a neighbor mask equal to it
	// means every batch bit crosses, unlocking the straight row walks.
	b.full = ^uint64(0) >> uint(64-b.nb)
	for i, s := range srcs {
		b.sigma[int(s)*W+i] = 1
		b.srcMask[s] |= uint64(1) << uint(i)
	}
	nodes, words := tr.Level(0)
	for i, v := range nodes {
		b.lvl[0][v] = words[i]
	}
	numLevels := tr.NumLevels()
	if b.blocks > 1 {
		b.levelSlots(numLevels)
	}
	if b.busy != nil {
		b.busy[0] += int64(time.Since(t0))
	}
	for d := 1; d < numLevels; d++ {
		b.region(regionForward, d)
	}
	for d := numLevels - 1; d >= 1; d-- {
		b.region(regionBackward, d)
	}
	if b.nodeAcc != nil {
		b.region(regionFoldNodes, 0)
	}
	if b.edgeAcc != nil {
		b.region(regionFoldEdges, 0)
	}
	b.region(regionClear, 0)
	for _, s := range srcs {
		b.srcMask[s] = 0
	}
}

// levelSlots fills levelOff and slotCum for the last traversal.
func (b *brandes) levelSlots(numLevels int) {
	offsets := b.c.Offsets
	b.levelOff = b.levelOff[:0]
	b.slotCum = append(b.slotCum[:0], 0)
	sum := 0
	for d := 0; d < numLevels; d++ {
		b.levelOff = append(b.levelOff, len(b.slotCum)-1)
		nodes, _ := b.tr.Level(d)
		for _, u := range nodes {
			sum += int(offsets[u+1] - offsets[u])
			b.slotCum = append(b.slotCum, sum)
		}
	}
	b.levelOff = append(b.levelOff, len(b.slotCum)-1)
}

// levelBlock returns block i [lo, hi) of level d's entries: the level cut
// into b.nblk runs of about equal adjacency slots.
func (b *brandes) levelBlock(d, i int) (lo, hi int) {
	if b.nblk == 1 {
		nodes, _ := b.tr.Level(d)
		return 0, len(nodes)
	}
	base, end := b.levelOff[d], b.levelOff[d+1]
	return b.levelCut(base, end, i) - base, b.levelCut(base, end, i+1) - base
}

// levelCut returns the first entry of [base, end) in block i or later: the
// first whose preceding slots reach i/nblk of the level's.
func (b *brandes) levelCut(base, end, i int) int {
	if i == b.nblk {
		return end
	}
	cum := b.slotCum
	target := cum[base] + (cum[end]-cum[base])*i/b.nblk
	return base + sort.Search(end-base, func(j int) bool { return cum[base+j] >= target })
}

// region runs one team region of the given kind at level d: the folds in
// b.blocks blocks, a sweep level in as many as its slots fill.
func (b *brandes) region(kind, d int) {
	b.kind, b.d, b.nblk = kind, d, b.blocks
	if (kind == regionForward || kind == regionBackward) && b.blocks > 1 {
		base, end := b.levelOff[d], b.levelOff[d+1]
		b.nblk = min(b.blocks, 1+(b.slotCum[end]-b.slotCum[base])/minBlockSlots)
	}
	b.team.Run(b.nblk, b.run)
}

// work runs block blk of the current region on worker w.
func (b *brandes) work(w, blk int) {
	var t0 time.Time
	if b.busy != nil {
		t0 = time.Now()
	}
	switch b.kind {
	case regionForward:
		b.forward(blk)
	case regionBackward:
		b.backward(blk)
	case regionFoldNodes:
		b.foldNodes(blk)
	case regionFoldEdges:
		b.folds[w*pad] += b.foldEdges(blk)
	case regionClear:
		b.clearRows(blk)
	}
	if b.busy != nil {
		b.busy[w*pad] += int64(time.Since(t0))
	}
}

// forward is the sigma pull at level d: each of block blk's level-d
// arrivals sums sigma from its distance-(d-1) neighbors, neighbor-outer so
// every bit's contributions arrive in ascending CSR order. Per-bit sums are
// independent, so when every batch bit crosses the bit-scan loop collapses
// to a straight row walk with identical bits. It also records the level's
// words for the next region and, on the edge paths, each crossing in the
// edge's word for the pulling node's side: 2e when it is the smaller
// endpoint, 2e+1 when it is the larger.
func (b *brandes) forward(blk int) {
	d, W, nb, full := b.d, b.width, b.nb, b.full
	offsets, targets, edgeID := b.c.Offsets, b.c.Targets, b.c.EdgeID
	sigma, cross := b.sigma, b.cross
	prev, cur := b.lvl[(d-1)%3], b.lvl[d%3]
	nodes, words := b.tr.Level(d)
	lo, hi := b.levelBlock(d, blk)
	for i := lo; i < hi; i++ {
		u, wu := nodes[i], words[i]
		cur[u] = wu
		row := sigma[int(u)*W : int(u)*W+W]
		k0 := int(offsets[u])
		for k, nbr := range targets[k0:offsets[u+1]] {
			m := wu & prev[nbr]
			if m == 0 {
				continue
			}
			if cross != nil {
				w := 2 * int(edgeID[k0+k])
				if nbr < u {
					w++
				}
				cross[w] |= m
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
}

// backward is the delta pull at level d: each of block blk's level-d
// arrivals sums its dependency over its distance-(d+1) neighbors —
// sigma(self)·coefficient(successor) — in ascending CSR order, then
// settles its coefficient (1+delta)/sigma into coef. A push from the
// successors, levels descending and nodes ascending, would add the same
// terms to every (node, bit) slot in the same ascending-successor order,
// which is the order the serial canonical oracle replays. Level 0 is never
// pulled: a source's dependency on itself is never read.
func (b *brandes) backward(blk int) {
	d, W, nb, full := b.d, b.width, b.nb, b.full
	offsets, targets := b.c.Offsets, b.c.Targets
	sigma, delta, coef := b.sigma, b.delta, b.coef
	cur := b.lvl[d%3]
	var next []uint64
	if d+1 < b.tr.NumLevels() {
		next = b.lvl[(d+1)%3]
	}
	nodes, words := b.tr.Level(d)
	lo, hi := b.levelBlock(d, blk)
	for i := lo; i < hi; i++ {
		v, wv := nodes[i], words[i]
		cur[v] = wv
		srow := sigma[int(v)*W : int(v)*W+W]
		drow := delta[int(v)*W : int(v)*W+W]
		if next != nil {
			for _, u := range targets[offsets[v]:offsets[v+1]] {
				mm := wv & next[u]
				if mm == 0 {
					continue
				}
				if coef == nil {
					usig := sigma[int(u)*W : int(u)*W+W]
					udel := delta[int(u)*W : int(u)*W+W]
					if mm == full {
						for s := 0; s < nb; s++ {
							drow[s] += srow[s] * ((1 + udel[s]) / usig[s])
						}
						continue
					}
					for mm != 0 {
						s := bits.TrailingZeros64(mm)
						mm &= mm - 1
						drow[s] += srow[s] * ((1 + udel[s]) / usig[s])
					}
					continue
				}
				ucoe := coef[int(u)*W : int(u)*W+W]
				if mm == full {
					for s := 0; s < nb; s++ {
						drow[s] += srow[s] * ucoe[s]
					}
					continue
				}
				for mm != 0 {
					s := bits.TrailingZeros64(mm)
					mm &= mm - 1
					drow[s] += srow[s] * ucoe[s]
				}
			}
		}
		if coef != nil {
			crow := coef[int(v)*W : int(v)*W+W]
			for m := wv; m != 0; {
				s := bits.TrailingZeros64(m)
				m &= m - 1
				crow[s] = (1 + drow[s]) / srow[s]
			}
		}
	}
}

// foldNodes folds block blk of the node rows into the node
// accumulator — node-outer, bit-inner ascending, each range's bits into
// its own shard's partial — so each node receives every shard's per-source
// contributions in shard-source order regardless of batch width (unreached
// slots add +0.0, a bitwise no-op on the non-negative accumulator). A
// shard that closes merges into the accumulator on the spot; when the
// shard left open by an earlier batch closes, untouched nodes merge their
// partial too. Only the first nb slots of a row are ever written.
//
// On the combined path the delta row then becomes the coefficient row the
// edge fold reads, computed from the same operands the pull used.
func (b *brandes) foldNodes(blk int) {
	W, nb := b.width, b.nb
	acc, part := b.nodeAcc, b.nodePart
	closing := b.cont && b.ranges[0].closes
	visit := b.tr.Visit()
	lo, hi := par.Block(len(visit), b.nblk, blk)
	for u := lo; u < hi; u++ {
		vw := visit[u]
		if vw == 0 {
			if closing {
				acc[u] += part[u]
				part[u] = 0
			}
			continue
		}
		srow := b.sigma[u*W : u*W+nb]
		drow := b.delta[u*W : u*W+nb]
		skip := b.srcMask[u]
		p := 0.0
		if b.cont {
			p = part[u]
		}
		for i := range b.ranges {
			r := &b.ranges[i]
			for s := r.lo; s < r.hi; s++ {
				if skip>>uint(s)&1 == 0 {
					p += drow[s]
				}
			}
			if r.closes {
				acc[u] += p
				p = 0
			}
		}
		if b.cont || b.open {
			part[u] = p
		}
		if b.coef != nil {
			continue
		}
		for m := vw; m != 0; {
			s := bits.TrailingZeros64(m)
			m &= m - 1
			drow[s] = (1 + drow[s]) / srow[s]
		}
	}
}

// foldEdges is the edge fold over block blk of the canonical edge ids. It
// walks the ids ascending, reads each edge's endpoints and both crossing
// words in order, and adds, crossing bits ascending,
// sigma(pred)·coefficient(succ) into the edge's accumulator. The two words
// cover every source whose dependency crossed the edge in either
// direction, each exactly once, so per edge the terms arrive in
// shard-source order at any batch width. Each range's bits fold into that
// range's shard partial, merged as foldNodes merges. Both words are
// cleared as the edge is folded. It returns the number of terms folded.
func (b *brandes) foldEdges(blk int) int64 {
	W := b.width
	edges := b.edges
	sigma, coef, cross := b.sigma, b.delta, b.cross
	acc, part := b.edgeAcc, b.edgePart
	ranges := b.ranges
	cont, open := b.cont, b.open
	closing := cont && ranges[0].closes
	folds := int64(0)
	lo, hi := par.Block(len(acc), b.nblk, blk)
	for e := lo; e < hi; e++ {
		mu := cross[2*e]   // bits where U is the successor (V → U crossing)
		mv := cross[2*e+1] // bits where V is the successor (U → V crossing)
		if mu|mv == 0 {
			if closing {
				acc[e] += part[e]
				part[e] = 0
			}
			continue
		}
		u, v := int(edges[e].U), int(edges[e].V)
		usig, ucoe := sigma[u*W:u*W+W], coef[u*W:u*W+W]
		vsig, vcoe := sigma[v*W:v*W+W], coef[v*W:v*W+W]
		p := 0.0
		if cont {
			p = part[e]
		}
		for i := range ranges {
			ru, rv := mu&ranges[i].mask, mv&ranges[i].mask
			un := ru | rv
			// Locality-ordered batches mostly agree on an edge's direction
			// (which endpoint is deeper), so the single-direction cases
			// get branch-free loops. All three walk the same bits
			// ascending and add the same per-bit term, so the sums are
			// bit-identical.
			switch {
			case un == 0:
			case rv == 0:
				for un != 0 {
					s := bits.TrailingZeros64(un)
					un &= un - 1
					p += vsig[s] * ucoe[s]
				}
			case ru == 0:
				for un != 0 {
					s := bits.TrailingZeros64(un)
					un &= un - 1
					p += usig[s] * vcoe[s]
				}
			default:
				for un != 0 {
					s := bits.TrailingZeros64(un)
					un &= un - 1
					if ru>>uint(s)&1 != 0 {
						p += vsig[s] * ucoe[s]
					} else {
						p += usig[s] * vcoe[s]
					}
				}
			}
			// Adding +0.0 is a no-op on the non-negative accumulator, so
			// a shard with no term here skips the merge.
			if ranges[i].closes && p != 0 {
				acc[e] += p
				p = 0
			}
		}
		if cont || open {
			part[e] = p
		}
		folds += int64(bits.OnesCount64(mu | mv))
		cross[2*e], cross[2*e+1] = 0, 0
	}
	return folds
}

// clearRows retires block blk of the nodes' scratch once every fold has
// read it: the visited rows and level words.
func (b *brandes) clearRows(blk int) {
	W, nb := b.width, b.nb
	visit := b.tr.Visit()
	lo, hi := par.Block(len(visit), b.nblk, blk)
	for u := lo; u < hi; u++ {
		if visit[u] == 0 {
			continue
		}
		clear(b.sigma[u*W : u*W+nb])
		clear(b.delta[u*W : u*W+nb])
		b.lvl[0][u], b.lvl[1][u], b.lvl[2][u] = 0, 0, 0
	}
}

// report folds the call's tallies into sp: sources done, edge terms
// folded, the traversal's engine counters and, per worker, the time spent
// working — inside regions, plus worker 0's serial stretches — so the
// span's idle fraction is barrier waits and the workers left idle by the
// serial traversal. A no-op when observability is off.
func (b *brandes) report(sp *obs.Span, wm *msbfs.WorkerMeter, sources int) {
	if !sp.Enabled() {
		return
	}
	sp.Counter("betweenness.sources_done").AddAt(0, int64(sources))
	sp.Counter("betweenness.mapped_bytes").AddAt(0, int64(len(b.mem)))
	foldCtr := sp.Counter("brandes.edge_folds")
	for w := 0; w < b.workers; w++ {
		foldCtr.AddAt(w, b.folds[w*pad])
		sp.WorkerBusy(w, time.Duration(b.busy[w*pad]))
	}
	wm.Fold()
}

// zeros returns a zeroed slice of size floats when want is set, else nil.
func zeros(want bool, size int) []float64 {
	if !want {
		return nil
	}
	return make([]float64, size)
}
