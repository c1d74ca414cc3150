package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func unitCaps(n, c int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func TestGreedyBMatchingRespectsCapacities(t *testing.T) {
	g := gen.Complete(6)
	caps := []int{1, 2, 3, 0, 2, 1}
	m, err := GreedyBMatching(g, caps, InputOrder)
	if err != nil {
		t.Fatalf("GreedyBMatching: %v", err)
	}
	for u, d := range m.Degrees {
		if d > caps[u] {
			t.Errorf("node %d degree %d > capacity %d", u, d, caps[u])
		}
	}
	if m.Degrees[3] != 0 {
		t.Errorf("zero-capacity node matched: degree %d", m.Degrees[3])
	}
	if err := m.VerifyMaximal(g, caps); err != nil {
		t.Errorf("VerifyMaximal: %v", err)
	}
}

func TestGreedyBMatchingUnitIsMatching(t *testing.T) {
	// With all capacities 1 a b-matching is an ordinary matching.
	g := gen.Cycle(6)
	m, err := GreedyBMatching(g, unitCaps(6, 1), InputOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.IDs) != 3 {
		t.Errorf("matching size on C6 = %d, want 3", len(m.IDs))
	}
	if err := m.VerifyMaximal(g, unitCaps(6, 1)); err != nil {
		t.Errorf("VerifyMaximal: %v", err)
	}
}

func TestGreedyBMatchingFullCapacityKeepsAll(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 4)
	// Capacities at the degrees, and capacities so large that their sum
	// overflows an int: both keep every edge.
	for _, caps := range [][]int{g.Degrees(), unitCaps(g.NumNodes(), math.MaxInt)} {
		m, err := GreedyBMatching(g, caps, InputOrder)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.IDs) != g.NumEdges() {
			t.Errorf("full capacities kept %d of %d edges", len(m.IDs), g.NumEdges())
		}
	}
}

func TestGreedyBMatchingErrors(t *testing.T) {
	g := gen.Path(3)
	if _, err := GreedyBMatching(g, []int{1, 1}, InputOrder); err == nil {
		t.Error("wrong capacity length accepted")
	}
	if _, err := GreedyBMatching(g, []int{1, -1, 1}, InputOrder); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestGreedyBMatchingOrders(t *testing.T) {
	g := gen.ErdosRenyi(60, 150, 8)
	caps := unitCaps(60, 2)
	for _, order := range []EdgeOrder{InputOrder, ScarceFirst, DenseFirst} {
		m, err := GreedyBMatching(g, caps, order)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if err := m.VerifyMaximal(g, caps); err != nil {
			t.Errorf("%v: %v", order, err)
		}
	}
}

func TestEdgeOrderString(t *testing.T) {
	if InputOrder.String() != "input" || ScarceFirst.String() != "scarce-first" || DenseFirst.String() != "dense-first" {
		t.Error("EdgeOrder strings wrong")
	}
	if EdgeOrder(99).String() != "EdgeOrder(99)" {
		t.Errorf("unknown order string = %q", EdgeOrder(99).String())
	}
}

// TestGreedyBMatchingAlwaysMaximal property-checks maximality across random
// graphs and random capacity vectors.
func TestGreedyBMatchingAlwaysMaximal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(30, 60, seed)
		caps := make([]int, 30)
		for i := range caps {
			caps[i] = rng.Intn(4)
		}
		m, err := GreedyBMatching(g, caps, EdgeOrder(rng.Intn(3)))
		if err != nil {
			return false
		}
		return m.VerifyMaximal(g, caps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGreedyBMatchingHalfApprox checks Hougardy's 1/2-approximation
// guarantee against an exhaustive optimum on tiny graphs.
func TestGreedyBMatchingHalfApprox(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := gen.ErdosRenyi(8, 12, seed)
		caps := unitCaps(8, 1)
		m, err := GreedyBMatching(g, caps, InputOrder)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteMaxMatching(g)
		if 2*len(m.IDs) < opt {
			t.Errorf("seed %d: greedy %d < half of optimum %d", seed, len(m.IDs), opt)
		}
	}
}

// bruteMaxMatching finds the maximum cardinality matching by backtracking
// over edges (fine for |E| <= ~20).
func bruteMaxMatching(g *graph.Graph) int {
	return bruteMaxBMatching(g, unitCaps(g.NumNodes(), 1))
}

// bruteMaxBMatching finds the exact maximum b-matching size by backtracking
// over edges under arbitrary capacities — the test oracle for Hougardy's
// 1/2-approximation guarantee.
func bruteMaxBMatching(g *graph.Graph, caps []int) int {
	edges := g.Edges()
	slack := append([]int(nil), caps...)
	var rec func(i int) int
	rec = func(i int) int {
		if i == len(edges) {
			return 0
		}
		best := rec(i + 1)
		e := edges[i]
		if slack[e.U] > 0 && slack[e.V] > 0 {
			slack[e.U]--
			slack[e.V]--
			if v := 1 + rec(i+1); v > best {
				best = v
			}
			slack[e.U]++
			slack[e.V]++
		}
		return best
	}
	return rec(0)
}

// TestGreedyBMatchingHalfApproxGeneralCaps checks the 1/2 guarantee against
// the exhaustive optimum under random non-unit capacities.
func TestGreedyBMatchingHalfApproxGeneralCaps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(7, 11, seed)
		caps := make([]int, 7)
		for i := range caps {
			caps[i] = rng.Intn(4)
		}
		m, err := GreedyBMatching(g, caps, InputOrder)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteMaxBMatching(g, caps)
		if 2*len(m.IDs) < opt {
			t.Errorf("seed %d: greedy %d < half of optimum %d (caps %v)", seed, len(m.IDs), opt, caps)
		}
	}
}

// TestGreedyBMatchingIDsAligned pins the IDs contract across every scan
// order: IDs are distinct canonical edge ids, so callers may mark matched
// edges in a []bool, and they come in scan order — by the order's key (the
// smaller endpoint capacity), ties in ascending id.
func TestGreedyBMatchingIDsAligned(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 5)
	all := g.Edges()
	rng := rand.New(rand.NewSource(5))
	caps := make([]int, g.NumNodes())
	for u := range caps {
		caps[u] = 1 + rng.Intn(3)
	}
	key := func(order EdgeOrder, id int32) int {
		e := all[id]
		switch order {
		case ScarceFirst:
			return min(caps[e.U], caps[e.V])
		case DenseFirst:
			return -min(caps[e.U], caps[e.V])
		}
		return 0
	}
	for _, order := range []EdgeOrder{InputOrder, ScarceFirst, DenseFirst} {
		m, err := GreedyBMatching(g, caps, order)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if err := m.VerifyMaximal(g, caps); err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		for i := 1; i < len(m.IDs); i++ {
			prev, id := m.IDs[i-1], m.IDs[i]
			if kp, k := key(order, prev), key(order, id); kp > k || (kp == k && prev >= id) {
				t.Fatalf("%v: IDs[%d]=%d (key %d) follows IDs[%d]=%d (key %d) out of scan order", order, i, id, k, i-1, prev, kp)
			}
		}
	}
}
