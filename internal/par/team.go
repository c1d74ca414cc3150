package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// teamSpin is how many times a waiting team member polls before it blocks:
// long enough to cover the gap between two back-to-back regions, short
// enough that a member waiting out a long serial stretch gives up its CPU.
// Every 64th poll yields. A team larger than GOMAXPROCS does not poll at
// all, since a polling member would hold the CPU a working one needs.
const teamSpin = 1 << 12

// Team is a persistent group of workers for a kernel that runs many short
// parallel regions in a row — batched Brandes runs two per BFS level of
// every batch — where forking goroutines per region with Run would cost
// more than the region's work. The calling goroutine is worker 0; NewTeam
// starts the other workers as helper goroutines that live until Close.
// Between regions they poll briefly and then block, so a team idles
// cheaply through the kernel's serial stretches.
//
// A region is a number of blocks fixed by the caller — static cut points,
// a function of the work alone — that the workers claim in ascending
// order, each block exactly once, whichever worker is free next. Claiming
// keeps workers busy when block costs are uneven, and it cannot reach an
// output bit as long as each block writes only its own slots and its
// result does not depend on the worker index, which is the only thing
// that varies between runs. Per-worker tallies that merely sum (counts,
// busy time) are fine; floating-point accumulation across blocks is not.
// A finished region's fn is dropped before Run returns, so the team keeps
// nothing a region captured alive.
//
// One goroutine drives a team: Run and Close must not be called
// concurrently. If a SlotObserver is installed when NewTeam runs, each
// slot is bracketed once for the team's lifetime — a helper on its own
// goroutine, slot 0 on the caller's, from NewTeam to Close.
type Team struct {
	workers int
	spin    int // polls before blocking: teamSpin, or 0 when oversubscribed
	obs     SlotObserver

	fn      func(w, i int) // the running region; nil between regions
	blocks  int            // the running region's block count
	claimed atomic.Int64   // blocks handed out so far in the running region
	gen     atomic.Uint64  // bumped to start each region, and by Close
	pending atomic.Int32   // helpers still inside the running region
	closed  atomic.Bool

	// The blocking half of the waits. A helper registers in sleepers
	// before its last look at gen, and the caller sets waiting before its
	// last look at pending, so whoever changes the watched word afterwards
	// sees the registration and signals under mu.
	mu       sync.Mutex
	wake     sync.Cond // helpers block here between regions
	done     sync.Cond // the caller blocks here for the last helper
	sleepers atomic.Int32
	waiting  atomic.Bool
	exited   sync.WaitGroup
}

// NewTeam starts a team of workers workers (at least 1). A one-worker team
// starts no goroutine.
func NewTeam(workers int) *Team {
	t := &Team{workers: max(workers, 1), spin: teamSpin, obs: slotObserver()}
	if t.workers > runtime.GOMAXPROCS(0) {
		t.spin = 0
	}
	t.wake.L = &t.mu
	t.done.L = &t.mu
	if t.obs != nil {
		t.obs.SlotBegin(0, t.workers)
	}
	t.exited.Add(t.workers - 1)
	for w := 1; w < t.workers; w++ {
		go t.helper(w)
	}
	return t
}

// Run executes one region: fn(w, i) once for every block i in
// [0, blocks), on whichever worker w claims it, worker 0 being the calling
// goroutine, and returns when every block is done. A region of one block,
// and every region of a one-worker team, runs inline on the caller without
// waking a helper.
func (t *Team) Run(blocks int, fn func(w, i int)) {
	if t.workers == 1 || blocks <= 1 {
		for i := 0; i < blocks; i++ {
			fn(0, i)
		}
		return
	}
	t.fn, t.blocks = fn, blocks
	t.claimed.Store(0)
	t.pending.Store(int32(t.workers - 1))
	t.gen.Add(1)
	if t.sleepers.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	t.share(0)
	for i := 0; t.pending.Load() != 0; i++ {
		if i < t.spin {
			if i&63 == 63 {
				runtime.Gosched()
			}
			continue
		}
		t.mu.Lock()
		t.waiting.Store(true)
		for t.pending.Load() != 0 {
			t.done.Wait()
		}
		t.waiting.Store(false)
		t.mu.Unlock()
	}
	t.fn = nil
}

// Close stops the helpers and waits for them to exit. Call it once, after
// the last Run.
func (t *Team) Close() {
	if t.workers > 1 {
		t.closed.Store(true)
		t.gen.Add(1)
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
		t.exited.Wait()
	}
	if t.obs != nil {
		t.obs.SlotEnd(0, t.workers)
	}
}

// helper is worker w's goroutine: wait for a region, run its share, report
// done, until Close.
func (t *Team) helper(w int) {
	defer t.exited.Done()
	if t.obs != nil {
		t.obs.SlotBegin(w, t.workers)
		defer t.obs.SlotEnd(w, t.workers)
	}
	var seen uint64
	for {
		seen = t.await(seen)
		if t.closed.Load() {
			return
		}
		t.share(w)
		if t.pending.Add(-1) == 0 && t.waiting.Load() {
			t.mu.Lock()
			t.done.Signal()
			t.mu.Unlock()
		}
	}
}

// share runs the blocks worker w claims in the current region. It is a
// call of its own so the region's fn is off the helper's stack once it
// returns.
//
//go:noinline
func (t *Team) share(w int) {
	fn, blocks := t.fn, int64(t.blocks)
	for i := t.claimed.Add(1) - 1; i < blocks; i = t.claimed.Add(1) - 1 {
		fn(w, int(i))
	}
}

// await returns the first generation after seen, polling t.spin times
// before it blocks.
func (t *Team) await(seen uint64) uint64 {
	for i := 0; i < t.spin; i++ {
		if g := t.gen.Load(); g != seen {
			return g
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	t.mu.Lock()
	t.sleepers.Add(1)
	g := t.gen.Load()
	for g == seen {
		t.wake.Wait()
		g = t.gen.Load()
	}
	t.sleepers.Add(-1)
	t.mu.Unlock()
	return g
}
