package graph

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// structuredLabelSets are label sequences built to defeat a weak hash:
// runs of consecutive integers, multiples of every power of two up to
// 2^62, negatives, runs at both int64 extremes, and one set large enough
// to double the table many times. Every set has thousands of labels and
// repeats some, as an edge list does.
func structuredLabelSets() map[string][]int64 {
	sets := map[string][]int64{}
	var consec, neg, big, extremes []int64
	for i := int64(0); i < 5000; i++ {
		consec = append(consec, i, i/2)
		neg = append(neg, -i, -3*i)
	}
	for i := int64(0); i < 300000; i++ {
		big = append(big, i*7919, (i/3)*7919)
	}
	for i := int64(0); i < 2000; i++ {
		extremes = append(extremes, math.MinInt64+i, math.MaxInt64-i, math.MinInt64+i/2, -i)
	}
	sets["consecutive"] = consec
	sets["negatives"] = neg
	sets["several-doublings"] = big
	sets["extremes"] = extremes
	for k := 1; k <= 62; k++ {
		// Every multiple of 2^k in int64, up to 4096 of them, from both
		// ends of the range inwards.
		var xs []int64
		step := int64(1) << k
		for j := int64(0); j < 2048; j++ {
			if j > math.MaxInt64>>k {
				break
			}
			xs = append(xs, j*step, -j*step, (j/2)*step)
		}
		xs = append(xs, math.MinInt64)
		sets[fmt.Sprintf("multiples-2^%d", k)] = xs
	}
	return sets
}

// probeRuns returns the mean and the longest probe run of r's table: the
// number of slots a lookup of each stored label visits.
func probeRuns(r *Remapper) (mean float64, longest int) {
	mask := uint64(len(r.slots) - 1)
	total, count := 0, 0
	for i, s := range r.slots {
		if s.id1 == 0 {
			continue
		}
		run := int((uint64(i)-r.home(s.label))&mask) + 1
		total += run
		count++
		longest = max(longest, run)
	}
	return float64(total) / float64(count), longest
}

// TestRemapperStructuredLabels drives the label table with every
// structured set: ids must equal a map-based first-seen oracle, the table
// must stay at most half full, and probe runs must stay short.
func TestRemapperStructuredLabels(t *testing.T) {
	for name, labels := range structuredLabelSets() {
		t.Run(name, func(t *testing.T) {
			r := NewRemapper()
			oracle := map[int64]NodeID{}
			for _, x := range labels {
				want, ok := oracle[x]
				if !ok {
					want = NodeID(len(oracle))
					oracle[x] = want
				}
				if got := r.ID(x); got != want {
					t.Fatalf("ID(%d) = %d, want first-seen id %d", x, got, want)
				}
			}
			if r.Len() != len(oracle) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(oracle))
			}
			for x, id := range oracle {
				if r.Label(id) != x {
					t.Fatalf("Label(%d) = %d, want %d", id, r.Label(id), x)
				}
			}
			if 2*r.Len() > len(r.slots) {
				t.Fatalf("table over half full: %d labels in %d slots", r.Len(), len(r.slots))
			}
			// Linear probing with a well-mixed hash at load <= 1/2 averages
			// under 1.5 probes per stored label, and over 17,820 runs of
			// these sets the mean never passed 1.61 nor the longest run 62.
			// Hashing by the bare product broke these bounds in 593 of
			// 6,600 runs of a set, up to a mean of 1,737 and one run
			// holding all 4,095 labels of a multiples-of-2^k set.
			if mean, longest := probeRuns(r); mean > 2 || longest > 100 {
				t.Fatalf("%d labels: mean probe run %.2f, longest %d", r.Len(), mean, longest)
			}
		})
	}
}

// TestRemapperLazyModesMaterialize pins that the lazy modes build the same
// table ID would have: an identity remapper and a label-array remapper
// resolve their stored labels and append new ones in first-seen order.
func TestRemapperLazyModesMaterialize(t *testing.T) {
	id := IdentityRemapper(100)
	if got := id.ID(-7); got != 100 {
		t.Fatalf("identity ID(-7) = %d, want 100", got)
	}
	for u := int64(0); u < 100; u++ {
		if got := id.ID(u); got != NodeID(u) {
			t.Fatalf("identity ID(%d) = %d after materializing", u, got)
		}
	}
	labels := []int64{math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)}
	lr := RemapperFromLabels(labels)
	if got := lr.ID(5); got != 4 {
		t.Fatalf("label ID(5) = %d, want 4", got)
	}
	for u, x := range labels {
		if got := lr.ID(x); got != NodeID(u) {
			t.Fatalf("label ID(%d) = %d, want %d", x, got, u)
		}
	}
}

// TestPackStructuredLabels packs one graph over structured labels through
// the in-RAM packer and the out-of-core packer, spilling and not, at one
// and three workers: the files must be byte-identical and the labels must
// round-trip.
func TestPackStructuredLabels(t *testing.T) {
	var labels []int64
	for k := 0; k <= 62; k += 2 {
		labels = append(labels, int64(1)<<k, -(int64(1) << k), int64(1)<<k+1)
	}
	labels = append(labels, math.MinInt64, math.MaxInt64, 0)
	var sb strings.Builder
	seen := map[[2]int64]bool{}
	var wantEdges [][2]int64
	for i := range labels {
		for j := 1; j <= 7; j++ {
			x, y := labels[i], labels[(i*5+j*j)%len(labels)]
			fmt.Fprintf(&sb, "%d %d\n", x, y)
			if e := [2]int64{min(x, y), max(x, y)}; x != y && !seen[e] {
				seen[e] = true
				wantEdges = append(wantEdges, e)
			}
		}
	}
	slices.SortFunc(wantEdges, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	text := sb.String()
	dir := t.TempDir()
	inPath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(inPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g, rm := loadTestGraph(t, text)
	if rm.Len() != len(labels) {
		t.Fatalf("loaded %d labels, want %d", rm.Len(), len(labels))
	}
	ramPath := filepath.Join(dir, "ram.esc")
	if err := WritePackedFile(ramPath, g, rm, PackWriteOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ramPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		for _, workers := range []int{1, 3} {
			out := filepath.Join(dir, fmt.Sprintf("ext-%d-%d.esc", budget, workers))
			stats, err := PackEdgeListFile(inPath, out, PackOptions{MemBudget: budget, TmpDir: dir, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if (stats.SpillChunks > 0) != (budget == 1) {
				t.Fatalf("budget %d: %d spill runs", budget, stats.SpillChunks)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("budget %d, %d workers: packed file differs from the in-RAM pack", budget, workers)
			}
			p, err := OpenPacked(out)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, p.Graph(), g, p.Remapper(), rm)
			if !slices.Equal(labelledEdges(p.Graph(), p.Remapper()), wantEdges) {
				t.Fatalf("budget %d, %d workers: packed labelled edges differ from the input's", budget, workers)
			}
			p.Close()
		}
	}
}
