package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span times one phase of a run: a monotonic start, a duration fixed by
// End, optional child spans, and — for parallel regions — per-worker busy
// time. Spans are created from a Recorder's Root or from a parent Span; a
// nil Span is the disabled state, whose methods no-op (Start returns nil)
// without allocating, so kernels thread a possibly-nil parent span through
// unconditionally.
//
// Start/End use time.Now, whose monotonic clock component makes durations
// immune to wall-clock adjustments. Concurrent children (a parallel sweep
// starting one child per ratio) are safe: the child list is mutex-guarded.
type Span struct {
	rec   *Recorder
	name  string
	start time.Time
	// nameID is the span name's flight-recorder intern id, resolved once at
	// Start so the begin/end/busy events End and WorkerBusy emit stay off
	// the intern mutex.
	nameID uint32

	// total and done are the span's optional unit-progress counts (BFS
	// sources completed, sweep ratios finished, suite tasks done). They are
	// plain atomics, not mutex-guarded: Done is called per completed work
	// unit, possibly from parallel workers, and must stay wait-free.
	total atomic.Int64
	done  atomic.Int64

	mu         sync.Mutex
	dur        time.Duration
	ended      bool
	children   []*Span
	workerBusy []time.Duration
}

// Enabled reports whether the span is recording. Use it to guard work that
// exists only to feed instrumentation (time.Now calls, stats scratch), so
// the disabled path stays free of even cheap side work.
func (s *Span) Enabled() bool { return s != nil }

// Start begins a child span. Nil-safe: on a nil Span it returns nil
// without allocating.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{rec: s.rec, name: name, start: time.Now()}
	child.nameID = s.rec.flight.intern(name)
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	s.rec.flight.emit(-1, EvSpanBegin, child.nameID, 0)
	return child
}

// End fixes the span's duration. Multiple Ends keep the first; a span never
// ended reports its duration as of snapshot time. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := !s.ended
	if first {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
	if first {
		s.rec.flight.emit(-1, EvSpanEnd, s.nameID, s.dur.Nanoseconds())
	}
}

// WorkerBusy adds busy time observed by worker w inside this span, so a
// parallel region reports how evenly its work spread. Negative worker
// indices are ignored; the per-worker table grows to the largest index
// seen. Nil-safe.
func (s *Span) WorkerBusy(w int, d time.Duration) {
	if s == nil || w < 0 {
		return
	}
	s.mu.Lock()
	for w >= len(s.workerBusy) {
		s.workerBusy = append(s.workerBusy, 0)
	}
	s.workerBusy[w] += d
	s.mu.Unlock()
	// The busy stretch also lands in the flight recorder, stamped at its
	// end with its length as the payload — the trace export rebuilds the
	// per-worker busy slices from these.
	s.rec.flight.emit(w, EvWorkerBusy, s.nameID, d.Nanoseconds())
}

// SetTotal declares how many work units the span expects to complete, the
// denominator for /progress percentages, ETAs and -v heartbeat lines.
// Nil-safe; 0 (never set) means the span has no unit notion.
func (s *Span) SetTotal(n int64) {
	if s == nil {
		return
	}
	s.total.Store(n)
}

// Done records n more completed work units. Callers report progress from
// parallel workers directly (an atomic add per unit, not per item of inner
// loops), so live scrapes see the count move while the span runs. Progress
// never feeds back into algorithm state, preserving the bit-identity
// guarantee. Nil-safe.
func (s *Span) Done(n int64) {
	if s == nil {
		return
	}
	s.done.Add(n)
}

// Progress reports the span's completed and expected unit counts; both are
// 0 on a nil span or a span without unit progress.
func (s *Span) Progress() (done, total int64) {
	if s == nil {
		return 0, 0
	}
	return s.done.Load(), s.total.Load()
}

// Counter returns the named counter of the span's Recorder, the handle
// kernels use for item-granularity telemetry. Nil-safe: a nil Span returns
// a nil Counter.
func (s *Span) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.rec.Counter(name)
}

// Histogram returns the named histogram of the span's Recorder, the handle
// kernels use for distribution telemetry. Nil-safe: a nil Span returns a
// nil Histogram.
func (s *Span) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.rec.Histogram(name)
}

// SpanNode is the serializable form of one span: offsets and durations in
// nanoseconds, per-worker busy time for parallel regions, and children in
// start order. The JSON encoding round-trips losslessly, so manifests can
// be re-read and diffed programmatically.
type SpanNode struct {
	// Name is the span's phase name.
	Name string `json:"name"`
	// StartNs is the span's start offset from the run's start.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration (or its duration so far, for spans still
	// open at snapshot time).
	DurNs int64 `json:"dur_ns"`
	// WorkerBusyNs is per-worker busy time inside the span, indexed by
	// worker; empty for serial spans.
	WorkerBusyNs []int64 `json:"worker_busy_ns,omitempty"`
	// Done and Total are the span's unit-progress counts (see Span.SetTotal);
	// both 0 when the span carries no unit notion.
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// EtaNs linearly extrapolates the remaining wall time of a still-open
	// span from its progress so far (dur · (total−done)/done); 0 for ended
	// spans, spans without progress, or spans that have completed no units
	// yet.
	EtaNs int64 `json:"eta_ns,omitempty"`
	// Ended reports whether the span's duration is final (End was called) or
	// still growing at snapshot time.
	Ended bool `json:"ended,omitempty"`
	// Children are the nested spans in creation order.
	Children []*SpanNode `json:"children,omitempty"`
}

// node snapshots the span (and recursively its children) relative to the
// run start origin; now supplies the duration of still-open spans.
func (s *Span) node(origin, now time.Time) *SpanNode {
	s.mu.Lock()
	n := &SpanNode{
		Name:    s.name,
		StartNs: s.start.Sub(origin).Nanoseconds(),
		Ended:   s.ended,
	}
	if s.ended {
		n.DurNs = s.dur.Nanoseconds()
	} else {
		n.DurNs = now.Sub(s.start).Nanoseconds()
	}
	n.Done, n.Total = s.done.Load(), s.total.Load()
	if !s.ended && n.Done > 0 && n.Total > n.Done {
		n.EtaNs = int64(float64(n.DurNs) * float64(n.Total-n.Done) / float64(n.Done))
	}
	if len(s.workerBusy) > 0 {
		n.WorkerBusyNs = make([]int64, len(s.workerBusy))
		for i, d := range s.workerBusy {
			n.WorkerBusyNs[i] = d.Nanoseconds()
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.node(origin, now))
	}
	return n
}
