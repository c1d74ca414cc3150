// Package matching implements degree-constrained subgraph primitives: the
// linear-time greedy maximal b-matching of Hougardy (paper reference [25])
// used by BM2 Phase 1, and the updatable max-priority queues that drive the
// paper's Algorithm 3, the bipartite matcher in internal/core.
package matching

// PQ is a max-priority queue with handle-based updates and removals, the
// structure Algorithm 3 needs: pop the highest-gain edge, re-weight edges
// adjacent to a node, discard edges that left the bipartite graph. The zero
// value is an empty queue.
type PQ[T any] struct {
	items []*Handle[T]
}

// Handle identifies an item inside a PQ for Update and Remove. A handle is
// invalidated once its item is popped or removed.
type Handle[T any] struct {
	Value    T
	priority float64
	index    int // position in the heap, -1 once detached
}

// Priority returns the handle's current priority.
func (h *Handle[T]) Priority() float64 { return h.priority }

// Valid reports whether the item is still queued.
func (h *Handle[T]) Valid() bool { return h.index >= 0 }

// Len returns the number of queued items.
func (q *PQ[T]) Len() int { return len(q.items) }

// Push inserts v with the given priority and returns its handle.
func (q *PQ[T]) Push(v T, priority float64) *Handle[T] {
	h := &Handle[T]{Value: v, priority: priority, index: len(q.items)}
	q.items = append(q.items, h)
	q.up(h.index)
	return h
}

// Pop removes and returns the highest-priority item. ok is false when the
// queue is empty.
func (q *PQ[T]) Pop() (v T, priority float64, ok bool) {
	if len(q.items) == 0 {
		return v, 0, false
	}
	h := q.items[0]
	q.detach(0)
	return h.Value, h.priority, true
}

// Peek returns the highest-priority item without removing it.
func (q *PQ[T]) Peek() (v T, priority float64, ok bool) {
	if len(q.items) == 0 {
		return v, 0, false
	}
	return q.items[0].Value, q.items[0].priority, true
}

// Update changes the priority of a queued item, restoring heap order. It
// panics on a detached handle, which indicates a use-after-pop bug.
func (q *PQ[T]) Update(h *Handle[T], priority float64) {
	if h.index < 0 {
		panic("matching: Update on detached handle")
	}
	old := h.priority
	h.priority = priority
	if priority > old {
		q.up(h.index)
	} else if priority < old {
		q.down(h.index)
	}
}

// Remove deletes a queued item. Removing an already-detached handle is a
// no-op so callers can discard edges without tracking pop state.
func (q *PQ[T]) Remove(h *Handle[T]) {
	if h.index < 0 {
		return
	}
	q.detach(h.index)
}

// detach removes the item at heap position i and restores heap order.
func (q *PQ[T]) detach(i int) {
	h := q.items[i]
	last := len(q.items) - 1
	if i != last {
		q.items[i] = q.items[last]
		q.items[i].index = i
	}
	q.items = q.items[:last]
	h.index = -1
	if i < len(q.items) {
		if !q.up(i) {
			q.down(i)
		}
	}
}

// up sifts position i toward the root; reports whether it moved.
func (q *PQ[T]) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].priority >= q.items[i].priority {
			break
		}
		q.swap(parent, i)
		i = parent
		moved = true
	}
	return moved
}

// down sifts position i toward the leaves.
func (q *PQ[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && q.items[l].priority > q.items[largest].priority {
			largest = l
		}
		if r < n && q.items[r].priority > q.items[largest].priority {
			largest = r
		}
		if largest == i {
			return
		}
		q.swap(i, largest)
		i = largest
	}
}

func (q *PQ[T]) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}
