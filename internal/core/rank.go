package core

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// This file holds CRR's Phase 1 ranking: order all edge ids by descending
// importance, breaking ties uniformly at random ("edges of the same
// importance are selected randomly", Algorithm 1).
//
// The seed implementation realized the random tie-break by materializing
// rng.Perm(|E|) and stable-sorting it by score, a serial pass over the rng
// stream. Here every edge carries a splitmix64 tiebreak keyed on (seed,
// id) instead, so the order is (score descending, tiebreak ascending):
// equal-score edges land in a uniformly random order that is independent
// across seeds, and no shared rng stream serializes a parallel Sweep. The
// tiebreak is a bijection of the id, so the key is unique per edge and any
// correct sort gives the same order.
//
// The sort runs in two stages, each over one 64-bit word per edge. Stage 1
// is an LSD radix sort by the order-mapped scores, over only the bits in
// which they differ, as many of the top ones as fit above the id in one
// word: all of them unless they span more than 64 − idBits bits. (On the
// lj100k bench graph the scores differ in 57 bits and the ids take 20, so
// the word holds the top 44.) Stage 2 sorts each group that shares those
// top bits, which holds an exact tie unless the scores differ in bits
// below them, by what is left of the score, then by the tiebreak.

// rankDigitBits is the widest digit of a stage-1 radix pass: 2^11
// counters stay in L1 while a pass scatters.
const rankDigitBits = 11

// rankEdges returns all edge ids ordered by (scores[id] descending,
// splitmix64 tiebreak ascending). For a fixed seed the order is a pure
// function of the score vector; across seeds the relative order of
// equal-score edges is an independent uniform permutation. The sort holds
// 20 bytes per edge, the returned order included.
func rankEdges(scores []float64, seed int64) []int32 {
	m := len(scores)
	order := make([]int32, m)
	if m == 0 {
		return order
	}
	first := rankBits(scores[0])
	var diff uint64 // the bits in which any two scores differ
	for _, s := range scores {
		diff |= rankBits(s) ^ first
	}
	l := rankLayout{idBits: uint(bits.Len(uint(m - 1)))}
	if diff != 0 {
		hi := uint(bits.Len64(diff))
		l.low = uint(bits.TrailingZeros64(diff))
		l.top = min(hi-l.low, 64-l.idBits)
		l.shift = hi - l.top
	}
	words := make([]uint64, m)
	for i, s := range scores {
		words[i] = l.word(s, i)
	}
	switch {
	case l.top == 0:
	case m < 1<<rankDigitBits:
		// A radix pass would clear and scan more counters than there are
		// words. Sorting whole words gives the same order: the id below
		// the score bits is the order a stable pass keeps.
		slices.Sort(words)
	default:
		words = radixSort(words, make([]uint64, m), l.idBits, l.idBits+l.top)
	}
	l.sortGroups(words, order, scores, seed)
	return order
}

// rankLayout is where the ranking's stage-1 word keeps an edge's score
// bits. The scores differ only in bits [low, shift+top); the word holds
// bits [shift, shift+top) above an idBits-wide id, and what is left,
// [low, shift), is the residual stage 2 sorts each group by.
type rankLayout struct {
	idBits, top, shift, low uint
}

// word returns the stage-1 word of edge id with the given score.
func (l rankLayout) word(score float64, id int) uint64 {
	return rankBits(score)>>l.shift&(1<<l.top-1)<<l.idBits | uint64(id)
}

// id returns the edge id in a stage-1 word.
func (l rankLayout) id(word uint64) int32 {
	return int32(word & (1<<l.idBits - 1))
}

// tieWord returns the stage-2 word of edge id: its residual in the top
// bits, then as many top bits of its tiebreak as leave the low 32 bits
// for the id. Residuals are at most idBits < 32 bits wide.
func (l rankLayout) tieWord(score float64, id int32, seed int64) uint64 {
	r := l.shift - l.low
	residual := rankBits(score) >> l.low & (1<<r - 1)
	return residual<<(64-r) | tiebreak(seed, id)>>(32+r)<<32 | uint64(uint32(id))
}

// sortGroups is stage 2: it writes the ids of the stage-1 sorted words
// into order, sorting every group of words that share their score bits
// by tie word, and the tie words that share their top 32 bits by the full
// tiebreak.
func (l rankLayout) sortGroups(words []uint64, order []int32, scores []float64, seed int64) {
	for a := 0; a < len(words); {
		b := a + 1
		for b < len(words) && words[b]>>l.idBits == words[a]>>l.idBits {
			b++
		}
		if b-a == 1 {
			order[a] = l.id(words[a])
		} else {
			group := words[a:b]
			for i, w := range group {
				id := l.id(w)
				group[i] = l.tieWord(scores[id], id, seed)
			}
			slices.Sort(group)
			settleTies(group, order[a:b], seed)
		}
		a = b
	}
}

// settleTies finishes one group: tie holds its tie words sorted, so only
// the words whose top 32 bits match a neighbor's can be out of order;
// sorting each such run by the full tiebreak settles them. Then it writes
// the group's ids into order.
func settleTies(tie []uint64, order []int32, seed int64) {
	for a := 0; a < len(tie); {
		b := a + 1
		for b < len(tie) && tie[b]>>32 == tie[a]>>32 {
			b++
		}
		if b-a > 1 {
			slices.SortFunc(tie[a:b], func(x, y uint64) int {
				return cmp.Compare(tiebreak(seed, int32(x)), tiebreak(seed, int32(y)))
			})
		}
		a = b
	}
	for i, t := range tie {
		order[i] = int32(t)
	}
}

// radixSort sorts keys ascending by their bits [lo, hi) in
// ceil((hi-lo)/rankDigitBits) stable LSD counting passes of equal width;
// a pass in which every key has the same digit is skipped. scratch is as
// long as keys. It returns whichever of the two holds the sorted keys.
//
// graph.radixSort runs such passes on several workers, but over packed
// edge keys, whose digits it gathers from two id fields 32 bits apart.
// Sharing this bit-range loop would cost it one more pass over the keys,
// to pack the two fields together first, so each sort keeps its own.
func radixSort(keys, scratch []uint64, lo, hi uint) []uint64 {
	passes := (hi - lo + rankDigitBits - 1) / rankDigitBits
	width := (hi - lo + passes - 1) / passes
	counts := make([]int, 1<<width)
	for p := uint(0); p < passes; p++ {
		if radixPass(keys, scratch, counts, lo+p*width, 1<<width-1) {
			keys, scratch = scratch, keys
		}
	}
	return keys
}

// radixPass is one of radixSort's passes, by the digit k>>shift&mask, with
// a counter per digit in counts. It scatters src stably into dst and
// reports true, or, when every key has the same digit, moves nothing and
// reports false.
func radixPass(src, dst []uint64, counts []int, shift uint, mask uint64) bool {
	clear(counts)
	for _, k := range src {
		counts[k>>shift&mask]++
	}
	sum := 0
	for d, c := range counts {
		if c == len(src) {
			return false
		}
		counts[d], sum = sum, sum+c
	}
	for _, k := range src {
		d := k >> shift & mask
		dst[counts[d]] = k
		counts[d]++
	}
	return true
}

// rankBits maps a score to a uint64 whose ascending order is the scores'
// descending order, with -0 and +0 mapped to the same image (they compare
// equal as floats, so they must tie). NaN scores are not supported — no
// importance function produces them.
func rankBits(x float64) uint64 {
	b := math.Float64bits(x + 0) // x+0 normalizes -0 to +0
	if b>>63 != 0 {
		// Negative: a larger magnitude is a lower score, so a later rank.
		return b
	}
	// Non-negative: flip the magnitude so larger scores come first, below
	// every negative.
	return ^b &^ (1 << 63)
}

// tiebreak is a splitmix64 step keyed on (seed, id): sequential ids land on
// uncorrelated 64-bit keys, so sorting by the key realizes a uniform random
// permutation within every equal-score group. Every step is a bijection,
// so distinct ids never share a key.
func tiebreak(seed int64, id int32) uint64 {
	z := uint64(seed) + (uint64(uint32(id))+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
