package graph

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Remapper maps sparse external node identifiers (as found in raw edge-list
// files) onto dense internal ids in first-seen order, remembering the
// original labels.
//
// The label → id direction is one open-addressing table of (label, id)
// slots, probed linearly and kept at most half full. A label's home slot
// comes from the label times an odd multiplier drawn at random once per
// remapper, mixed (see home). Ids are handed out in first-seen order
// whatever the multiplier, so it cannot reach any output; it only keeps a
// crafted label set from piling into one probe run.
//
// Two lazy modes avoid the O(n) table a loader of an already-dense graph
// would otherwise build for nothing: IdentityRemapper labels dense id u with
// the integer u without storing anything, and RemapperFromLabels carries a
// label array (as read from a packed file) without building the table. Both
// modes materialize the table transparently if ID is ever asked to assign
// new labels.
type Remapper struct {
	slots    []labelSlot // nil in the lazy modes until ID needs it
	mul      uint64      // odd hash multiplier
	shift    uint        // 64 − log2(len(slots)): keeps the hash's high bits
	labels   []int64     // nil in identity mode
	identity int         // >0: identity over [0, identity), labels nil
}

// labelSlot is one table entry: a label and its dense id plus one, so that
// a zeroed slot is empty.
type labelSlot struct {
	label int64
	id1   uint32
}

// minLabelSlots is the table size of a new remapper.
const minLabelSlots = 16

// NewRemapper returns an empty remapper.
func NewRemapper() *Remapper {
	r := &Remapper{}
	r.rehash(minLabelSlots)
	return r
}

// IdentityRemapper returns a remapper whose first n labels are the identity:
// dense id u carries label u. It allocates O(1) memory — no table, no label
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
// copied, and must not be modified afterwards. The label → id table is only
// built if ID is called.
func RemapperFromLabels(labels []int64) *Remapper {
	return &Remapper{labels: labels}
}

// materialize converts a lazy remapper into the tabled form, so ID can look
// up and assign labels.
func (r *Remapper) materialize() {
	if r.identity > 0 {
		r.labels = make([]int64, r.identity)
		for u := range r.labels {
			r.labels[u] = int64(u)
		}
		r.identity = 0
	}
	size := minLabelSlots
	for size < 2*len(r.labels) {
		size *= 2
	}
	r.rehash(size)
}

// rehash rebuilds the table with size slots (a power of two) from the label
// array, drawing the multiplier on first use. A label that occurs twice in
// the array (possible only in a RemapperFromLabels table) resolves to its
// last id.
func (r *Remapper) rehash(size int) {
	if r.mul == 0 {
		r.mul = rand.Uint64() | 1
	}
	r.slots = make([]labelSlot, size)
	r.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for id, x := range r.labels {
		i := r.home(x)
		for r.slots[i].id1 != 0 && r.slots[i].label != x {
			i = (i + 1) & mask
		}
		r.slots[i] = labelSlot{label: x, id1: uint32(id) + 1}
	}
}

// home returns label x's home slot: the high bits of x times the random
// multiplier, put through MurmurHash3's 64-bit finalizer. The product alone
// turns an arithmetic progression of labels (consecutive ids, multiples of
// a power of two) into a lattice of slots, which lines up into long probe
// runs whenever the multiplier sits near a fraction with a small
// denominator; the finalizer mixes every bit of the product into every
// bit of the result, which breaks the lattice up.
func (r *Remapper) home(x int64) uint64 {
	h := uint64(x) * r.mul
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h >> r.shift
}

// ID returns the dense id for external label x, assigning the next free id on
// first sight. On a lazy remapper the identity fast path answers in-range
// labels directly; anything else materializes the table first.
func (r *Remapper) ID(x int64) NodeID {
	if r.slots == nil {
		if r.identity > 0 && x >= 0 && x < int64(r.identity) {
			return NodeID(x)
		}
		r.materialize()
	}
	mask := uint64(len(r.slots) - 1)
	i := r.home(x)
	for r.slots[i].id1 != 0 {
		if r.slots[i].label == x {
			return NodeID(r.slots[i].id1 - 1)
		}
		i = (i + 1) & mask
	}
	id := NodeID(len(r.labels))
	r.labels = append(r.labels, x)
	r.slots[i] = labelSlot{label: x, id1: uint32(id) + 1}
	if 2*len(r.labels) > len(r.slots) {
		r.rehash(2 * len(r.slots))
	}
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
