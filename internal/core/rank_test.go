package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestRankEdgesScoreOrder(t *testing.T) {
	scores := []float64{0.5, 2, 0.5, 1, 2, 0}
	order := rankEdges(scores, 7)
	if len(order) != len(scores) {
		t.Fatalf("len = %d, want %d", len(order), len(scores))
	}
	seen := make([]bool, len(scores))
	for i, id := range order {
		if seen[id] {
			t.Fatalf("edge %d ranked twice", id)
		}
		seen[id] = true
		if i > 0 && scores[order[i-1]] < scores[id] {
			t.Fatalf("rank %d: score %v after %v", i, scores[id], scores[order[i-1]])
		}
	}
}

func TestRankEdgesReproducible(t *testing.T) {
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = float64(i % 7)
	}
	a := rankEdges(scores, 42)
	b := rankEdges(scores, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d differs across identical calls: %d vs %d", i, a[i], b[i])
		}
	}
}

// rankReference orders the edge ids with a direct float comparator:
// score descending, tiebreak ascending.
func rankReference(scores []float64, seed int64) []int32 {
	ref := make([]int32, len(scores))
	for i := range ref {
		ref[i] = int32(i)
	}
	sort.SliceStable(ref, func(i, j int) bool {
		a, b := ref[i], ref[j]
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return tiebreak(seed, a) < tiebreak(seed, b)
	})
	return ref
}

// TestRankEdgesMatchesFloatComparator pins the radix ranking against a
// direct float comparator: the bit-twiddled key must order exactly like
// (score descending, tiebreak ascending), including negative, zero and
// duplicated scores. The large sets, past 2^17 scores, take stage 1's
// radix passes and long stage-2 groups: all distinct, all equal (the
// shape of ImportanceRandom), a few repeated values, zeros of both signs
// the most common, and near ties that differ only in bits below the ones
// stage 1 sorts by.
func TestRankEdgesMatchesFloatComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := []float64{-2.5, -1, math.Copysign(0, -1), 0, 0.5, 0.5, 1, 3, 1e-12, -1e-12, 1e300}
	check := func(name string, scores []float64, seed int64) {
		t.Helper()
		ref := rankReference(scores, seed)
		got := rankEdges(scores, seed)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s, rank %d: %d (score %v), reference %d (score %v)",
					name, i, got[i], scores[got[i]], ref[i], scores[ref[i]])
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		scores := make([]float64, 200)
		for i := range scores {
			scores[i] = pool[rng.Intn(len(pool))]
		}
		check(fmt.Sprintf("trial %d", trial), scores, rng.Int63())
	}
	// nudge moves v up by k ulps: scores that tie in all but their lowest
	// bits.
	nudge := func(v float64, k int) float64 {
		for ; k > 0; k-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		return v
	}

	const large = 1<<17 + 123
	distinct := make([]float64, large)
	for i, v := range rng.Perm(len(distinct)) {
		distinct[i] = (float64(v) - 1000) * 0.37
	}
	repeated := make([]float64, 2*large)
	for i := range repeated {
		switch r := rng.Intn(10); {
		case r < 3:
			repeated[i] = 0
		case r < 6:
			repeated[i] = math.Copysign(0, -1)
		default:
			repeated[i] = pool[rng.Intn(len(pool))]
		}
	}
	// Scores spanning every bit, most of them within a few ulps of 1:
	// words that share their top score bits but not the residual below
	// them, in one group past 2^17 words and in many short ones.
	nearTies := make([]float64, 2*large)
	for i := range nearTies {
		v := 1.0
		if rng.Intn(10) < 3 {
			v = pool[rng.Intn(len(pool))]
		}
		nearTies[i] = nudge(v, rng.Intn(8))
	}
	for _, set := range []struct {
		name   string
		scores []float64
	}{
		{"distinct", distinct},
		{"equal", make([]float64, large)},
		{"repeated", repeated},
		{"near ties", nearTies},
	} {
		check(set.name, set.scores, rng.Int63())
	}
}

// TestRankEdgesTieRandomness checks the random-among-equals semantics: over
// many seeds, a block of equal-score edges lands in many distinct orders.
func TestRankEdgesTieRandomness(t *testing.T) {
	scores := make([]float64, 6) // all zero: one big tie group, 720 orders
	perms := map[string]bool{}
	for seed := int64(0); seed < 300; seed++ {
		perms[fmt.Sprint(rankEdges(scores, seed))] = true
	}
	// 300 draws from 720 permutations should hit far more than a handful;
	// a deterministic or near-deterministic tiebreak would collapse this.
	if len(perms) < 200 {
		t.Fatalf("only %d distinct tie orders across 300 seeds", len(perms))
	}
}
