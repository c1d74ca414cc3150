package core

import (
	"math"
	"slices"
)

// This file holds CRR's Phase 1 ranking: order all edge ids by descending
// importance, breaking ties uniformly at random ("edges of the same
// importance are selected randomly", Algorithm 1).
//
// The seed implementation realized the random tie-break by materializing
// rng.Perm(|E|) and stable-sorting it by score — an extra |E|-sized
// allocation, a serial pass over the rng stream, and sort.SliceStable's
// merge overhead on top of a comparator that chases two levels of
// indirection per comparison. Here every edge carries a 24-byte record of
// (order-reversed score bits, splitmix64 tiebreak, id) and the sort
// compares those fields in place: no indirection, unique keys (so the
// faster unstable sort suffices), and equal-score edges still land in a
// uniformly random order that is independent across seeds — the same
// semantics, measurably less work per sweep point, and no shared rng
// stream to serialize a parallel Sweep.

// rankKey is one edge's composed sort key.
type rankKey struct {
	// inv orders descending by score: it is the monotone uint64 image of
	// the score with all bits flipped, so ascending inv = descending score.
	inv int64
	// tb is the random tie-break among equal scores.
	tb uint64
	id int32
}

// rankEdges returns all edge ids ordered by (scores[id] descending,
// splitmix64 tiebreak ascending). For a fixed seed the order is a pure
// function of the score vector; across seeds the relative order of
// equal-score edges is an independent uniform permutation.
func rankEdges(scores []float64, seed int64) []int32 {
	keys := make([]rankKey, len(scores))
	for i := range keys {
		keys[i] = rankKey{
			inv: ^orderedBits(scores[i]),
			tb:  tiebreak(seed, int32(i)),
			id:  int32(i),
		}
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.inv != b.inv {
			if a.inv < b.inv {
				return -1
			}
			return 1
		}
		if a.tb != b.tb {
			if a.tb < b.tb {
				return -1
			}
			return 1
		}
		return int(a.id - b.id) // unreachable in practice: 64-bit tb collision
	})
	order := make([]int32, len(keys))
	for i, k := range keys {
		order[i] = k.id
	}
	return order
}

// orderedBits maps a float64 to an int64 whose natural order matches the
// float order, with -0 and +0 mapped to the same image (they compare equal
// as floats, so they must tie). NaN scores are not supported — no importance
// function produces them.
func orderedBits(x float64) int64 {
	b := int64(math.Float64bits(x + 0)) // x+0 normalizes -0 to +0
	if b < 0 {
		// Negative floats: flip the magnitude bits so bigger magnitude
		// orders lower, keeping the sign bit set (below all positives).
		return math.MinInt64 - b
	}
	return b
}

// tiebreak is a splitmix64 step keyed on (seed, id): sequential ids land on
// uncorrelated 64-bit keys, so sorting by the key realizes a uniform random
// permutation within every equal-score group.
func tiebreak(seed int64, id int32) uint64 {
	z := uint64(seed) + (uint64(uint32(id))+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
