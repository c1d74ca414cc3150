package obs

import "sync/atomic"

// CounterShards is the fixed number of accumulation cells per counter —
// the same power-of-two shard discipline as internal/par's Shards
// (DESIGN.md §7): worker w adds into cell w mod CounterShards, so any
// worker count up to the shard count runs contention-free, and reads merge
// the cells. The constant is restated rather than aliased to par.Shards so
// the obs data structures read self-contained (obs imports par only for
// the SlotObserver seam in cli.go); a unit test pins the two equal.
const CounterShards = 16

// counterCell is one shard of a Counter, padded out to 128 bytes — two
// 64-byte cache lines, so adjacent cells never share a line even under the
// adjacent-line prefetcher — to keep concurrent workers from false
// sharing.
type counterCell struct {
	n atomic.Int64
	_ [120]byte
}

// Counter is a monotonic (well-behaved callers only add non-negative
// deltas, though negative deltas are not rejected) event counter sharded
// across CounterShards padded atomic cells. A nil Counter is the disabled
// state: Add and AddAt no-op; Value reports 0.
//
// Kernels running under par.Run should use AddAt with their worker index,
// which lands each worker on a stable cell; single-goroutine callers use
// Add, which is AddAt(0, n).
type Counter struct {
	cells [CounterShards]counterCell
}

// Add accumulates n into shard 0. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.cells[0].n.Add(n)
}

// AddAt accumulates n into worker w's shard (w mod CounterShards; negative
// w is treated as 0). Nil-safe.
func (c *Counter) AddAt(w int, n int64) {
	if c == nil {
		return
	}
	if w < 0 {
		w = 0
	}
	c.cells[w&(CounterShards-1)].n.Add(n)
}

// Value merges the shards. It is safe to call concurrently with writers;
// the result is a consistent sum of everything that completed before the
// call and an arbitrary subset of concurrent adds. A nil Counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}
