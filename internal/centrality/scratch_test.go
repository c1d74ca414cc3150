package centrality

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// residentBytes reads the process's resident set size from /proc/self/statm.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		t.Fatalf("statm %q: no resident field", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// TestScratchMapping pins where newScratch puts a call's rows and mask. In
// a build that maps (linux, not race), a request of one 2 MiB huge page or
// more comes back zeroed and writable from outside the Go heap — the heap
// does not grow by its size — and unmapping it hands most of it back to
// the system. A smaller request, and every request in a build that does
// not map, comes from the heap.
func TestScratchMapping(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rows, slots int
		mapped      bool
	}{
		{"edges 2.5 MiB", 1 << 17, 1 << 16, scratchMaps},
		{"nodes 2 MiB", 1 << 17, 0, scratchMaps},
		{"edges under 2 MiB", 1<<17 - 1, 1, false},
		{"tiny", 10, 20, false},
	} {
		size := uint64(16*tc.rows + 8*tc.slots)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sigma, delta, mask, mem := newScratch(tc.rows, tc.slots)
		runtime.ReadMemStats(&after)
		if got := mem != nil; got != tc.mapped {
			t.Fatalf("%s: mapped = %v, want %v", tc.name, got, tc.mapped)
		}
		grew := after.HeapAlloc - before.HeapAlloc
		if tc.mapped && grew >= size/2 {
			t.Fatalf("%s: heap grew %d bytes for a %d-byte mapped request", tc.name, grew, size)
		}
		if !tc.mapped && grew < size {
			t.Fatalf("%s: heap grew %d bytes for a %d-byte heap request", tc.name, grew, size)
		}
		if len(sigma) != tc.rows || len(delta) != tc.rows || len(mask) != tc.slots {
			t.Fatalf("%s: lengths %d, %d, %d, want %d, %d, %d",
				tc.name, len(sigma), len(delta), len(mask), tc.rows, tc.rows, tc.slots)
		}
		if (mask == nil) != (tc.slots == 0) {
			t.Fatalf("%s: mask nil = %v with %d slots", tc.name, mask == nil, tc.slots)
		}
		// Zeroed, writable and disjoint: fill every word with its own
		// value, then read them all back.
		for i := range sigma {
			if sigma[i] != 0 || delta[i] != 0 {
				t.Fatalf("%s: row word %d not zeroed", tc.name, i)
			}
			sigma[i], delta[i] = float64(i), -float64(i)
		}
		for i := range mask {
			if mask[i] != 0 {
				t.Fatalf("%s: mask word %d not zeroed", tc.name, i)
			}
			mask[i] = ^uint64(i)
		}
		for i := range sigma {
			if sigma[i] != float64(i) || delta[i] != -float64(i) {
				t.Fatalf("%s: row word %d overwritten", tc.name, i)
			}
		}
		for i := range mask {
			if mask[i] != ^uint64(i) {
				t.Fatalf("%s: mask word %d overwritten", tc.name, i)
			}
		}
		if mem == nil {
			continue
		}
		sigma, delta, mask = nil, nil, nil
		debug.FreeOSMemory()
		held := residentBytes(t)
		unmapScratch(mem)
		if freed := held - residentBytes(t); freed < int64(size)/2 {
			t.Fatalf("%s: unmapping %d bytes freed %d resident bytes", tc.name, size, freed)
		}
	}
}
