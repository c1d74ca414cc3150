package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph. It rejects
// self-loops, parallel edges and out-of-range endpoints at AddEdge time so
// that a finished Graph always satisfies the package invariants.
//
// The zero Builder is a builder for a zero-node graph; use NewBuilder or Grow
// to size it.
type Builder struct {
	n     int
	edges []Edge
	seen  map[Edge]struct{}
}

// NewBuilder returns a builder for a graph with n nodes (ids 0..n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, seen: make(map[Edge]struct{})}
}

// Grow raises the node count to at least n. Shrinking is not supported;
// a smaller n is a no-op.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge adds the undirected edge (u, v). It returns an error for
// self-loops, endpoints outside [0, NumNodes) and edges already present
// (in either orientation).
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", u, v, b.n)
	}
	e := Edge{u, v}.Canonical()
	if b.seen == nil {
		b.seen = make(map[Edge]struct{})
	}
	if _, dup := b.seen[e]; dup {
		return fmt.Errorf("graph: duplicate edge %v", e)
	}
	b.seen[e] = struct{}{}
	b.edges = append(b.edges, e)
	return nil
}

// TryAddEdge adds (u, v) and reports whether the edge was added. Unlike
// AddEdge it treats duplicates and self-loops as a quiet "no" — the shape
// generators use it to retry collisions — but still panics on out-of-range
// endpoints, which are always caller bugs.
func (b *Builder) TryAddEdge(u, v NodeID) bool {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside node range [0,%d)", u, v, b.n))
	}
	if u == v {
		return false
	}
	e := Edge{u, v}.Canonical()
	if b.seen == nil {
		b.seen = make(map[Edge]struct{})
	}
	if _, dup := b.seen[e]; dup {
		return false
	}
	b.seen[e] = struct{}{}
	b.edges = append(b.edges, e)
	return true
}

// HasEdge reports whether (u, v) has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	_, ok := b.seen[Edge{u, v}.Canonical()]
	return ok
}

// Graph finalizes the builder into an immutable Graph. The builder remains
// usable afterwards; the produced graph does not alias builder memory.
func (b *Builder) Graph() *Graph {
	edges := slices.Clone(b.edges)
	slices.SortFunc(edges, func(x, y Edge) int {
		if x.U != y.U {
			return cmp.Compare(x.U, y.U)
		}
		return cmp.Compare(x.V, y.V)
	})
	return newGraph(b.n, edges)
}

// Remapper maps sparse external node identifiers (as found in raw edge-list
// files) onto dense internal ids, remembering the original labels.
//
// Two lazy modes avoid the O(n) map a loader of an already-dense graph would
// otherwise materialize for nothing: IdentityRemapper labels dense id u with
// the integer u without storing anything, and RemapperFromLabels carries a
// label array (as read from a packed file) without building the reverse map.
// Both modes materialize the full map transparently if ID is ever asked to
// assign new labels.
type Remapper struct {
	toDense  map[int64]NodeID // nil in the lazy modes until ID needs it
	labels   []int64          // nil in identity mode
	identity int              // >0: identity over [0, identity), labels nil
}

// NewRemapper returns an empty remapper.
func NewRemapper() *Remapper {
	return &Remapper{toDense: make(map[int64]NodeID)}
}

// IdentityRemapper returns a remapper whose first n labels are the identity:
// dense id u carries label u. It allocates O(1) memory — no map, no label
// array — which is what binary and packed loads of million-node graphs want,
// since their node ids are already dense.
func IdentityRemapper(n int) *Remapper {
	if n < 0 {
		panic("graph: negative identity remapper size")
	}
	return &Remapper{identity: n}
}

// RemapperFromLabels returns a remapper over an existing dense-id → label
// table, as stored in a packed graph file. The slice is retained, not
// copied, and must not be modified afterwards. The reverse (label → id) map
// is only built if ID is called.
func RemapperFromLabels(labels []int64) *Remapper {
	return &Remapper{labels: labels}
}

// materialize converts a lazy remapper into the fully-mapped form, so ID can
// look up and assign labels.
func (r *Remapper) materialize() {
	if r.identity > 0 {
		r.labels = make([]int64, r.identity)
		for u := range r.labels {
			r.labels[u] = int64(u)
		}
		r.identity = 0
	}
	if r.toDense == nil {
		r.toDense = make(map[int64]NodeID, len(r.labels))
		for u, x := range r.labels {
			r.toDense[x] = NodeID(u)
		}
	}
}

// ID returns the dense id for external label x, assigning the next free id on
// first sight. On a lazy remapper the identity fast path answers in-range
// labels directly; anything else materializes the map first.
func (r *Remapper) ID(x int64) NodeID {
	if r.identity > 0 {
		if x >= 0 && x < int64(r.identity) {
			return NodeID(x)
		}
		r.materialize()
	}
	if r.toDense == nil {
		r.materialize()
	}
	if id, ok := r.toDense[x]; ok {
		return id
	}
	id := NodeID(len(r.labels))
	r.toDense[x] = id
	r.labels = append(r.labels, x)
	return id
}

// Len returns the number of distinct labels seen.
func (r *Remapper) Len() int {
	if r.identity > 0 {
		return r.identity
	}
	return len(r.labels)
}

// Label returns the external label for dense id u.
func (r *Remapper) Label(u NodeID) int64 {
	if r.identity > 0 {
		if u < 0 || int(u) >= r.identity {
			panic(fmt.Sprintf("graph: label lookup for id %d outside identity range [0,%d)", u, r.identity))
		}
		return int64(u)
	}
	return r.labels[u]
}
