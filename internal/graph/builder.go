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
	return newGraph(b.n, edges, 0)
}
