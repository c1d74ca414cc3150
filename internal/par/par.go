// Package par provides the worker-count resolution and static work-sharding
// primitives shared by the repository's parallel kernels (centrality,
// analysis, tasks).
//
// Every kernel built on this package follows one determinism discipline, the
// one the Brandes rewrite established:
//
//   - Work is assigned to workers statically — by stride (worker w takes
//     items w, w+workers, …) or by contiguous Blocks — never through a
//     channel, so the partition is a pure function of (items, workers).
//     A Team region is the one exception, and only in who runs a block:
//     its blocks are fixed by the caller and each writes only its own
//     slots, so workers may claim them as they come free.
//   - Outputs that are per-item independent (one array slot per node or
//     edge) are written directly: the value of each slot does not depend on
//     the partition at all.
//   - Reductions over integers merge per-worker partials with exact
//     arithmetic, so any merge order gives the same bits.
//   - Reductions over floating point accumulate into a fixed number of
//     Shards keyed by item index, not by worker, and merge in shard order.
//     The summation tree is then a function of the item set alone, making
//     the result bit-identical at any worker count.
//
// Together these rules make every kernel's output a deterministic function
// of (input, options) — the worker count only changes wall-clock time.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shards is the fixed accumulation-shard count for deterministic
// floating-point reductions: item i always accumulates into the same shard,
// whatever the worker count — betweenness gives shard k the contiguous
// Block(n, Shards, k) of its source list — and per-shard partials merge in
// shard index order. The count fixes the summation tree, not the
// parallelism: betweenness folds its shards one after another, with every
// worker inside each batch.
const Shards = 16

// Workers resolves a requested worker count against an item count:
// requested <= 0 selects runtime.GOMAXPROCS(0), and the result is clamped
// to [1, max(items, 1)] so callers can launch exactly that many goroutines
// without spawning idle ones.
func Workers(requested, items int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SlotObserver is how par reports worker-slot identity to an observability
// layer: SlotBegin(w, workers) fires when slot w of a workers-wide region
// starts and SlotEnd when it finishes, on the slot's own goroutine. par
// stays import-free of obs; obs installs its flight recorder here
// (DESIGN.md §11).
//
// Implementations must not feed back into worker scheduling or kernel
// state — the bit-identity discipline above depends on observation staying
// read-only.
type SlotObserver interface {
	SlotBegin(w, workers int)
	SlotEnd(w, workers int)
}

// slotObsBox wraps the observer so atomic.Value always stores one concrete
// type (a requirement of Value.Store), including the nil observer.
type slotObsBox struct{ o SlotObserver }

var slotObs atomic.Value // holds slotObsBox

// SetSlotObserver installs o (nil uninstalls) as the process-wide slot
// observer and returns the previous one, so a session can restore its
// predecessor on Close. The load on the hot path is one atomic read; with
// no observer installed Run and Blocks behave exactly as before.
func SetSlotObserver(o SlotObserver) (prev SlotObserver) {
	if b, ok := slotObs.Load().(slotObsBox); ok {
		prev = b.o
	}
	slotObs.Store(slotObsBox{o: o})
	return prev
}

// slotObserver returns the installed observer, or nil.
func slotObserver() SlotObserver {
	if b, ok := slotObs.Load().(slotObsBox); ok {
		return b.o
	}
	return nil
}

// Run invokes fn(w) for every worker index w in [0, workers) and waits for
// all of them. With workers == 1 it calls fn inline, so serial runs pay no
// goroutine or synchronization cost. fn receives only its worker index;
// sharding is the caller's business (stride over items, or use Blocks).
//
// If a SlotObserver is installed, each slot's run is bracketed with
// SlotBegin/SlotEnd on the slot's goroutine (the inline workers == 1 path
// included), which is how the obs trace export attributes time to workers.
func Run(workers int, fn func(w int)) {
	obs := slotObserver()
	if workers <= 1 {
		if obs != nil {
			obs.SlotBegin(0, 1)
			defer obs.SlotEnd(0, 1)
		}
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			if obs != nil {
				obs.SlotBegin(w, workers)
				defer obs.SlotEnd(w, workers)
			}
			fn(w)
		}(w)
	}
	wg.Wait()
}

// Block returns the half-open range [lo, hi) of the w-th of workers
// contiguous, near-equal blocks over n items. The first n mod workers
// blocks are one item larger; the union of all blocks is exactly [0, n).
func Block(n, workers, w int) (lo, hi int) {
	size := n / workers
	rem := n % workers
	lo = w*size + min(w, rem)
	hi = lo + size
	if w < rem {
		hi++
	}
	return lo, hi
}

// Blocks partitions n items into workers contiguous near-equal ranges and
// runs fn(w, lo, hi) on each concurrently, waiting for all. It is the
// sharding of choice for per-item-independent output arrays: each worker
// writes a disjoint contiguous slice, which is race-free and
// cache-friendly, and the values are partition-independent by construction.
// With workers <= 1 it calls fn(0, 0, n) inline — no goroutines, no
// closure allocation — so kernels that resolve to a single worker pay
// nothing for routing through Blocks.
func Blocks(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		if n > 0 {
			if obs := slotObserver(); obs != nil {
				obs.SlotBegin(0, 1)
				defer obs.SlotEnd(0, 1)
			}
			fn(0, 0, n)
		}
		return
	}
	Run(workers, func(w int) {
		lo, hi := Block(n, workers, w)
		if lo < hi {
			fn(w, lo, hi)
		}
	})
}
