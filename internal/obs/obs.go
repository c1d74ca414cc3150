// Package obs is the repository's observability layer: phase spans with
// monotonic timings, sharded counters and histograms, runtime profile/trace
// capture, and JSON run manifests — stdlib only, threaded through every
// kernel and cmd binary.
//
// The package is built around one hard rule, the one that lets
// instrumentation live inside hot kernels: **disabled instrumentation is
// free**. A nil *Recorder, nil *Span and nil *Counter are all valid
// receivers whose methods no-op without allocating (pinned by
// TestDisabledPathAllocatesNothing), so kernels carry instrumentation
// unconditionally and pay only a nil check when nothing is recording.
// Instrumentation never feeds back into algorithm state — no rng draws, no
// data-dependent branches — so kernel outputs are bit-identical with
// observation on or off, at any worker count (pinned per kernel by the
// obs on/off determinism regressions in core, tasks and stream).
//
// The vocabulary, and when to use which (DESIGN.md §8):
//
//   - A Span times a phase — something that happens once or a few times per
//     run (CRR Phase 1 vs Phase 2, a BFS sweep, one evaluation task). Spans
//     nest, carry per-worker busy time for parallel regions, and serialize
//     as a tree.
//   - A Counter counts events — something that happens per item (sources
//     completed, rewiring attempts accepted, queue operations). Counters
//     are sharded so parallel workers never contend.
//   - A Probe records a quality level — a float value observed, not
//     accumulated (CRR's Δ trajectory, theorem-bound headroom; see
//     quality.go and DESIGN.md §12). It is the package's one gauge kind.
//   - A Histogram records a distribution — per-item values whose spread
//     matters, not just their sum (per-batch BFS times, MS-BFS level
//     widths, CRR delta magnitudes). Power-of-two buckets, sharded like
//     counters.
//   - The Flight recorder remembers the last few thousand individual
//     events (span boundaries, direction switches, rewire flushes) in
//     per-worker rings, the raw material of the trace-event export and the
//     panic dump (DESIGN.md §11).
//
// Counters, histograms and probes are registered by name alone; what a
// name means — its kind, unit, better direction and help text — is
// declared once in metric.go, where every surface reads it.
//
// A Recorder owns one run's root span and metrics, and snapshots into a
// Manifest — the diffable JSON document every cmd binary can emit via its
// -metrics flag (see CLI).
package obs

import (
	"sync"
	"time"
)

// Recorder owns the instrumentation state of one run: the root span, the
// counter, histogram and probe registries, and the start time every span
// offset is relative to. A nil Recorder is the disabled state: every method
// no-ops (or returns a nil handle whose methods no-op) without allocating.
type Recorder struct {
	start  time.Time
	root   *Span
	flight *Flight

	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	probes     map[string]*Probe

	// The quality timeline has its own mutex so probe recordings (rare,
	// flush-point cadence) never contend with registry lookups.
	qmu     sync.Mutex
	quality []QualityPoint
}

// New returns an enabled Recorder whose root span, named after the command
// or operation being observed, starts now. An enabled Recorder always
// carries a flight recorder (~0.5 MB of rings); the free-when-disabled rule
// is carried by nil receivers, not by partially-enabled recorders.
func New(name string) *Recorder {
	r := &Recorder{
		start:      time.Now(),
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		probes:     make(map[string]*Probe),
	}
	r.flight = newFlight(r.start)
	r.root = &Span{rec: r, name: name, start: r.start, nameID: r.flight.intern(name)}
	r.flight.emit(-1, EvSpanBegin, r.root.nameID, 0)
	return r
}

// Root returns the run's root span, the parent every top-level phase span
// should be started from. Nil-safe: a nil Recorder returns a nil Span.
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Counter returns the named counter, creating it on first use. The same
// name always returns the same counter, so concurrent callers accumulate
// into shared cells. Nil-safe: a nil Recorder returns a nil Counter, whose
// Add methods no-op.
//
// The lookup takes a mutex: fetch the handle once before a hot loop and
// Add through the handle, never per item.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. The
// same name always returns the same histogram. Nil-safe: a nil Recorder
// returns a nil Histogram, whose Observe methods no-op.
//
// Like Counter, the lookup takes a mutex: fetch the handle once before a
// hot loop and Observe through the handle, never per item.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// CounterValues snapshots every registered counter as a name → merged-value
// map. A nil or counter-less Recorder returns nil.
func (r *Recorder) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// HistogramValues snapshots every registered histogram as a name →
// snapshot map. A nil or histogram-less Recorder returns nil.
func (r *Recorder) HistogramValues() map[string]*HistogramSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.histograms) == 0 {
		return nil
	}
	out := make(map[string]*HistogramSnapshot, len(r.histograms))
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

// SpanTree snapshots the span tree as serializable nodes with start offsets
// relative to the Recorder's start. Spans still running are reported with
// their duration so far. A nil Recorder returns nil.
func (r *Recorder) SpanTree() *SpanNode {
	if r == nil {
		return nil
	}
	return r.root.node(r.start, time.Now())
}
