package matching

// FlatPQ is the flat, index-addressed counterpart of PQ: items are dense
// int32 ids, priorities and heap positions live in plain slices, and no
// per-item Handle is allocated. It exists for the shedding core's hot paths
// — BM2's Algorithm 3 above all — where the pointer-handle PQ pays an
// allocation per push and a cache miss per sift.
//
// FlatPQ deliberately replicates PQ's heap dynamics instruction for
// instruction (binary sift with the same comparison directions, detach by
// swap-with-last): an algorithm that issues the same Push/Pop/Update/Remove
// sequence with the same priorities pops the same ids in the same order,
// bit for bit. That equivalence — pinned by TestFlatPQMatchesPQ — is what
// lets BM2 swap data structures while keeping its output identical to the
// pre-flat implementation even when priorities tie. Determinism under ties
// therefore comes from the caller's fixed operation sequence (edges are
// scanned in ascending canonical id), not from an id tie-break inside the
// heap.
//
// The zero value is an empty queue. Ids should be dense, 0..k−1 for k
// pushed items: the id-indexed arrays grow to the largest id ever pushed,
// so a sparse id costs memory for every smaller one. Renaming ids densely
// changes no pop order, since the heap compares priorities only.
type FlatPQ struct {
	heap []int32   // item ids in heap order
	pos  []int32   // id -> heap position, -1 once detached
	pri  []float64 // id -> current priority

	// Stats, when non-nil, tallies the queue's operations. It never affects
	// the heap dynamics — the popped-id order is identical with Stats set or
	// nil — and the nil default costs one predictable branch per operation.
	Stats *PQStats
}

// PQStats counts FlatPQ operations for observability. Attach one via the
// Stats field before use; read the totals after the algorithm finishes.
type PQStats struct {
	// Pushes counts Push calls.
	Pushes int64
	// Pops counts successful Pop calls (an empty-queue Pop is not counted).
	Pops int64
	// Updates counts Update calls.
	Updates int64
	// Removes counts Remove calls that detached a queued id (no-op removes
	// of already-detached ids are not counted).
	Removes int64
}

// Len returns the number of queued items.
func (q *FlatPQ) Len() int { return len(q.heap) }

// Contains reports whether id is currently queued.
func (q *FlatPQ) Contains(id int32) bool {
	return int(id) < len(q.pos) && q.pos[id] >= 0
}

// Priority returns id's most recent priority; meaningful only for ids that
// have been pushed.
func (q *FlatPQ) Priority(id int32) float64 { return q.pri[id] }

// grow extends the id-indexed arrays to cover id, in one step.
func (q *FlatPQ) grow(id int32) {
	from := len(q.pos)
	if int(id) < from {
		return
	}
	q.pos = append(q.pos, make([]int32, int(id)+1-from)...)
	q.pri = append(q.pri, make([]float64, int(id)+1-from)...)
	for i := from; i < len(q.pos); i++ {
		q.pos[i] = -1
	}
}

// Push inserts id with the given priority. Pushing an id that is already
// queued panics, which indicates a bookkeeping bug in the caller; a popped
// or removed id may be pushed again.
func (q *FlatPQ) Push(id int32, priority float64) {
	q.grow(id)
	if q.pos[id] >= 0 {
		panic("matching: FlatPQ.Push of an already-queued id")
	}
	q.pri[id] = priority
	q.pos[id] = int32(len(q.heap))
	q.heap = append(q.heap, id)
	q.up(len(q.heap) - 1)
	if q.Stats != nil {
		q.Stats.Pushes++
	}
}

// Pop removes and returns the highest-priority id. ok is false when the
// queue is empty.
func (q *FlatPQ) Pop() (id int32, priority float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	id = q.heap[0]
	q.detach(0)
	if q.Stats != nil {
		q.Stats.Pops++
	}
	return id, q.pri[id], true
}

// Update changes the priority of a queued id, restoring heap order. It
// panics on a detached id, which indicates a use-after-pop bug.
func (q *FlatPQ) Update(id int32, priority float64) {
	if !q.Contains(id) {
		panic("matching: FlatPQ.Update on detached id")
	}
	old := q.pri[id]
	q.pri[id] = priority
	if priority > old {
		q.up(int(q.pos[id]))
	} else if priority < old {
		q.down(int(q.pos[id]))
	}
	if q.Stats != nil {
		q.Stats.Updates++
	}
}

// Remove deletes a queued id. Removing an already-detached id is a no-op so
// callers can discard edges without tracking pop state.
func (q *FlatPQ) Remove(id int32) {
	if !q.Contains(id) {
		return
	}
	q.detach(int(q.pos[id]))
	if q.Stats != nil {
		q.Stats.Removes++
	}
}

// detach removes the item at heap position i and restores heap order,
// mirroring PQ.detach exactly.
func (q *FlatPQ) detach(i int) {
	id := q.heap[i]
	last := len(q.heap) - 1
	if i != last {
		q.heap[i] = q.heap[last]
		q.pos[q.heap[i]] = int32(i)
	}
	q.heap = q.heap[:last]
	q.pos[id] = -1
	if i < len(q.heap) {
		if !q.up(i) {
			q.down(i)
		}
	}
}

// up sifts position i toward the root; reports whether it moved.
func (q *FlatPQ) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if q.pri[q.heap[parent]] >= q.pri[q.heap[i]] {
			break
		}
		q.swap(parent, i)
		i = parent
		moved = true
	}
	return moved
}

// down sifts position i toward the leaves.
func (q *FlatPQ) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && q.pri[q.heap[l]] > q.pri[q.heap[largest]] {
			largest = l
		}
		if r < n && q.pri[q.heap[r]] > q.pri[q.heap[largest]] {
			largest = r
		}
		if largest == i {
			return
		}
		q.swap(i, largest)
		i = largest
	}
}

func (q *FlatPQ) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = int32(i)
	q.pos[q.heap[j]] = int32(j)
}
