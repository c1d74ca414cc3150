package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamRunsEveryBlockOnce pins the region contract: every block index
// runs exactly once, on a worker index inside the team, and Run returns
// only after all of them — across team sizes, block counts and many
// back-to-back regions on one team.
func TestTeamRunsEveryBlockOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		tm := NewTeam(workers)
		for r, blocks := range []int{0, 1, 5, 100, 3, 64} {
			hits := make([]int32, blocks)
			var bad atomic.Int32
			tm.Run(blocks, func(w, i int) {
				if w < 0 || w >= workers {
					bad.Store(1)
				}
				atomic.AddInt32(&hits[i], 1)
			})
			if bad.Load() != 0 {
				t.Fatalf("workers=%d region %d: worker index outside [0, %d)", workers, r, workers)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d region %d: block %d ran %d times, want 1", workers, r, i, h)
				}
			}
		}
		tm.Close()
	}
}

// waitGoroutines polls until the goroutine count drops to want, since an
// exiting goroutine can still be counted for a moment after it signals.
// Unrelated goroutines (earlier tests' leftovers) may exit meanwhile, so
// callers check for at most want.
func waitGoroutines(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	return got
}

// TestTeamHelpersExitOnClose pins the helpers' lifetime: NewTeam starts
// workers-1 goroutines, they survive idle stretches long enough to block,
// and Close ends every one of them.
func TestTeamHelpersExitOnClose(t *testing.T) {
	start := runtime.NumGoroutine()
	tm := NewTeam(5)
	var sum atomic.Int64
	for r := 0; r < 20; r++ {
		tm.Run(8, func(w, i int) { sum.Add(int64(i)) })
		if r%5 == 0 {
			time.Sleep(2 * time.Millisecond) // long enough for the helpers to block
		}
	}
	tm.Close()
	if sum.Load() != 20*28 {
		t.Fatalf("block sum %d, want %d", sum.Load(), 20*28)
	}
	if got := waitGoroutines(start); got > start {
		t.Fatalf("after Close: %d goroutines, want at most %d", got, start)
	}
}

// TestTeamMoreWorkersThanGOMAXPROCS pins progress under oversubscription:
// eight workers on one P still finish many regions, because waiting
// members yield while they poll and then block.
func TestTeamMoreWorkersThanGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tm := NewTeam(8)
	defer tm.Close()
	var count atomic.Int64
	for r := 0; r < 200; r++ {
		tm.Run(16, func(w, i int) { count.Add(1) })
	}
	if count.Load() != 200*16 {
		t.Fatalf("ran %d blocks, want %d", count.Load(), 200*16)
	}
}

// TestTeamSerialRunsInline pins the one-worker team: no goroutine is
// started, blocks run in order on the caller, and Run allocates nothing.
func TestTeamSerialRunsInline(t *testing.T) {
	start := runtime.NumGoroutine()
	tm := NewTeam(1)
	defer tm.Close()
	if got := runtime.NumGoroutine(); got != start {
		t.Fatalf("NewTeam(1) started %d goroutines", got-start)
	}
	var order []int
	tm.Run(4, func(w, i int) {
		if w != 0 {
			t.Errorf("serial team passed worker index %d", w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial blocks ran in order %v, want ascending", order)
		}
	}
	var sink int
	fn := func(w, i int) { sink += i }
	if allocs := testing.AllocsPerRun(100, func() { tm.Run(4, fn) }); allocs != 0 {
		t.Errorf("serial Team.Run: %v allocs per run, want 0", allocs)
	}
	_ = sink
}

// TestTeamSlotObserverBracketsEachSlotOnce pins the team's slot
// identity: each slot — helpers on their goroutines, slot 0 on the
// caller's — is bracketed exactly once for the team's lifetime, however
// many regions run, so the trace export draws one track per worker.
func TestTeamSlotObserverBracketsEachSlotOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		obs := &countingObserver{}
		prev := SetSlotObserver(obs)
		tm := NewTeam(workers)
		for r := 0; r < 10; r++ {
			tm.Run(8, func(w, i int) {})
		}
		tm.Close()
		SetSlotObserver(prev)
		for w := 0; w < workers; w++ {
			if obs.begins[w] != 1 || obs.ends[w] != 1 {
				t.Errorf("workers=%d slot %d: begins=%d ends=%d, want 1/1",
					workers, w, obs.begins[w], obs.ends[w])
			}
		}
		if obs.begins[workers] != 0 {
			t.Errorf("workers=%d: phantom slot %d observed", workers, workers)
		}
		if obs.workersSeen != int32(workers) {
			t.Errorf("workers=%d: observer told workers=%d", workers, obs.workersSeen)
		}
	}
}

// teamPayload is a heap object big enough to notice, captured by a region.
type teamPayload struct{ buf [1 << 16]byte }

// TestTeamDropsFinishedRegion pins that a team keeps nothing a finished
// region captured: once Run returns, the region's closure — and whatever
// it references, batched Brandes' rows in production — is collectable
// while the team lives on.
func TestTeamDropsFinishedRegion(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tm := NewTeam(workers)
		freed := make(chan struct{})
		func() {
			p := &teamPayload{}
			runtime.SetFinalizer(p, func(*teamPayload) { close(freed) })
			tm.Run(16, func(w, i int) { p.buf[i]++ })
		}()
		collected := false
		for try := 0; try < 50 && !collected; try++ {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		tm.Run(2, func(w, i int) {}) // the team is still usable afterwards
		tm.Close()
		if !collected {
			t.Fatalf("workers=%d: a finished region's closure is still reachable from the team", workers)
		}
	}
}
