package graph

import (
	"fmt"

	"edgeshed/internal/par"
)

// Validate checks the structural invariants of g and returns the first
// violation found, or nil. It is O(|V| + |E|), sharded across GOMAXPROCS
// workers, and intended for tests and for verifying graphs read from
// untrusted inputs (PackedGraph.Verify, gpack -verify).
//
// Invariants:
//   - every edge is canonical (U < V) and in range, and the edge list is
//     strictly sorted (hence duplicate-free and loop-free);
//   - the CSR arrays are well formed: monotone offsets covering 2|E| slots,
//     strictly ascending in-range targets per node, and in-range edge ids
//     (checkIndexes, which every packed load also runs);
//   - the adjacency is the one the edge list describes: every slot's edge
//     id names the edge between its node and its target (checkAgreement).
//     Targets strictly ascend, so a node has at most one slot per edge, and
//     2|E| slots then cover each edge exactly once at each endpoint: the
//     edge list fixes Offsets, Targets and EdgeID, and adjacency and edge
//     list hold the same incidences.
func (g *Graph) Validate() error {
	c := g.CSR()
	if err := checkIndexes(c, g.edges); err != nil {
		return err
	}
	return checkAgreement(c, g.edges)
}

// checkIndexes checks the invariants that no kernel may run without, and
// that loading a packed file therefore proves: monotone offsets covering
// exactly 2m slots, per-node target lists strictly ascending and in range,
// a strictly ascending canonical edge list, and every EdgeID entry inside
// the edge list's bounds so no kernel indexing through it can fault.
// Everything is a sequential O(|V|+|E|) sweep, sharded across GOMAXPROCS
// workers (the sweeps are read-only and blocks are contiguous, so
// cross-block lookbacks like edges[i-1] stay valid).
func checkIndexes(c *CSR, edges []Edge) error {
	n, m := c.NumNodes(), len(edges)
	if len(c.Targets) != 2*m || len(c.EdgeID) != 2*m {
		return fmt.Errorf("graph: CSR slot arrays hold %d/%d entries, want %d", len(c.Targets), len(c.EdgeID), 2*m)
	}
	if c.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets start at %d, want 0", c.Offsets[0])
	}
	if int(c.Offsets[n]) != 2*m {
		return fmt.Errorf("graph: offsets end at %d, want %d", c.Offsets[n], 2*m)
	}

	// Monotone offsets come first on their own: with the ends pinned at 0
	// and 2m, monotonicity is what proves every per-node [lo, hi) below is
	// in Targets' bounds, so the slot sweep must not start before the whole
	// offsets array has passed.
	workers := par.Workers(0, n+m)
	errs := make([]error, workers)
	par.Blocks(n, workers, func(w, blo, bhi int) {
		for ui := blo; ui < bhi; ui++ {
			if c.Offsets[ui] > c.Offsets[ui+1] {
				errs[w] = fmt.Errorf("graph: offsets decrease at node %d", ui)
				return
			}
		}
	})
	if err := firstErr(errs); err != nil {
		return err
	}

	par.Blocks(m, workers, func(w, blo, bhi int) {
		for i := blo; i < bhi; i++ {
			e := edges[i]
			if e.U < 0 || e.V >= NodeID(n) || e.U >= e.V {
				errs[w] = fmt.Errorf("graph: edge %d = %v not canonical in [0,%d)", i, e, n)
				return
			}
			if i > 0 {
				prev := edges[i-1]
				if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
					errs[w] = fmt.Errorf("graph: edge list not in canonical order at edge %d (%v after %v)", i, e, prev)
					return
				}
			}
		}
	})
	if err := firstErr(errs); err != nil {
		return err
	}

	par.Blocks(n, workers, func(w, blo, bhi int) {
		for ui := blo; ui < bhi; ui++ {
			lo, hi := c.Offsets[ui], c.Offsets[ui+1]
			for s := lo; s < hi; s++ {
				v := c.Targets[s]
				if v < 0 || int(v) >= n {
					errs[w] = fmt.Errorf("graph: target %d at slot %d out of range [0,%d)", v, s, n)
					return
				}
				if s > lo && c.Targets[s-1] >= v {
					errs[w] = fmt.Errorf("graph: targets of node %d not strictly ascending at slot %d", ui, s)
					return
				}
				if id := c.EdgeID[s]; id < 0 || int(id) >= m {
					errs[w] = fmt.Errorf("graph: edge id %d at slot %d out of range [0,%d)", id, s, m)
					return
				}
			}
		}
	})
	return firstErr(errs)
}

// checkAgreement runs the cross-check checkIndexes skips, on arrays it has
// passed: every slot's edge id resolves to the canonical edge it targets.
// It is a random-access sweep that costs about as much as a whole packed
// load again, so loading does not run it; Validate does.
func checkAgreement(c *CSR, edges []Edge) error {
	n, m := c.NumNodes(), len(edges)
	workers := par.Workers(0, n+m)
	errs := make([]error, workers)
	par.Blocks(n, workers, func(w, blo, bhi int) {
		for ui := blo; ui < bhi; ui++ {
			u := NodeID(ui)
			lo, hi := c.Offsets[ui], c.Offsets[ui+1]
			for s := lo; s < hi; s++ {
				v := c.Targets[s]
				id := c.EdgeID[s]
				if e := (Edge{u, v}.Canonical()); edges[id] != e {
					errs[w] = fmt.Errorf("graph: slot %d claims edge id %d = %v, but targets %v", s, id, edges[id], e)
					return
				}
			}
		}
	})
	return firstErr(errs)
}

// firstErr returns the first non-nil error in worker order: blocks are
// contiguous and each worker stops at its first failure, so this is the
// earliest-index failure of the earliest failing block.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
