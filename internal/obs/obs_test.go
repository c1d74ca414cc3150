package obs

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"edgeshed/internal/par"
)

// TestNilReceiversNoOp pins the disabled-state contract: every method on a
// nil Recorder, Span, Counter and Histogram is a safe no-op, and handles
// derived from nil receivers are themselves nil.
func TestNilReceiversNoOp(t *testing.T) {
	var r *Recorder
	if r.Root() != nil {
		t.Error("nil Recorder.Root() != nil")
	}
	if r.Counter("x") != nil {
		t.Error("nil Recorder.Counter() != nil")
	}
	if r.Histogram("x") != nil {
		t.Error("nil Recorder.Histogram() != nil")
	}
	if r.Flight() != nil {
		t.Error("nil Recorder.Flight() != nil")
	}
	if r.CounterValues() != nil || r.HistogramValues() != nil || r.SpanTree() != nil {
		t.Error("nil Recorder snapshots != nil")
	}
	if r.Quality("x") != nil {
		t.Error("nil Recorder.Quality() != nil")
	}
	if r.QualityValues() != nil || r.QualityPoints() != nil {
		t.Error("nil Recorder quality snapshots != nil")
	}

	var sp *Span
	if sp.Enabled() {
		t.Error("nil Span.Enabled() = true")
	}
	if child := sp.Start("phase"); child != nil {
		t.Error("nil Span.Start() != nil")
	}
	sp.End()
	sp.WorkerBusy(3, time.Second)
	if sp.Counter("x") != nil || sp.Histogram("x") != nil {
		t.Error("nil Span handle != nil")
	}
	if sp.Marker(EvBatch, "x") != nil {
		t.Error("nil Span.Marker() != nil")
	}
	if sp.Quality("x") != nil {
		t.Error("nil Span.Quality() != nil")
	}

	var p *Probe
	p.Record(0.5, 1.5)
	p.RecordAt(3, 0.5, 1.5)
	if v, ok := p.Value(); ok || v != 0 {
		t.Error("nil Probe.Value() != (0, false)")
	}

	var c *Counter
	c.Add(5)
	c.AddAt(7, 5)
	if c.Value() != 0 {
		t.Error("nil Counter.Value() != 0")
	}

	var h *Histogram
	h.Observe(5)
	h.ObserveAt(3, 5)
	if h.Snapshot() != nil {
		t.Error("nil Histogram.Snapshot() != nil")
	}

	var f *Flight
	f.SlotBegin(0, 4)
	f.SlotEnd(0, 4)
	if f.Marker(EvBatch, "x") != nil {
		t.Error("nil Flight.Marker() != nil")
	}
	if f.Events() != nil {
		t.Error("nil Flight.Events() != nil")
	}

	var mk *Marker
	mk.Emit(0, 1)
}

// disabledKernelPath exercises the exact call shape an instrumented kernel
// runs when observation is off: derive a child span, fetch counters,
// histograms and markers, add/observe/emit, record worker busy time, end.
func disabledKernelPath(parent *Span) {
	sp := parent.Start("phase")
	sp.SetTotal(100)
	ctr := sp.Counter("events")
	hist := sp.Histogram("batch_ns")
	mk := sp.Marker(EvBatch, "phase")
	for i := 0; i < 8; i++ {
		ctr.AddAt(i, 1)
		hist.ObserveAt(i, int64(i)*100)
		mk.Emit(i, int64(i))
		sp.Done(1)
	}
	ctr.Add(1)
	hist.Observe(7)
	if d, tot := sp.Progress(); d != 0 || tot != 0 {
		panic("nil span reported progress")
	}
	q := sp.Quality("delta")
	q.RecordAt(0, 0.5, 1.5)
	q.Record(0.5, 2.5)
	if _, ok := q.Value(); ok {
		panic("nil probe reported a value")
	}
	sp.WorkerBusy(0, time.Millisecond)
	sp.End()
}

// TestDisabledPathAllocatesNothing is the hard tentpole requirement:
// instrumentation through nil handles must not allocate, so kernels can
// carry it unconditionally.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var parent *Span
	if allocs := testing.AllocsPerRun(100, func() { disabledKernelPath(parent) }); allocs != 0 {
		t.Fatalf("disabled instrumentation path allocates %.1f objects per run, want 0", allocs)
	}
}

// TestCounterShardsMatchPar pins the shard-count discipline shared with
// internal/par (DESIGN.md §7): the constants must stay equal so worker
// indices map onto counter cells the same way they map onto accumulation
// shards.
func TestCounterShardsMatchPar(t *testing.T) {
	if CounterShards != par.Shards {
		t.Fatalf("obs.CounterShards = %d, par.Shards = %d; the disciplines must agree", CounterShards, par.Shards)
	}
	if CounterShards&(CounterShards-1) != 0 {
		t.Fatalf("CounterShards = %d is not a power of two", CounterShards)
	}
}

// TestCounterConcurrentAdds drives a counter from many workers through
// par.Run — the exact usage pattern of the instrumented kernels — and
// checks the merged value. Run under -race in CI (make race).
func TestCounterConcurrentAdds(t *testing.T) {
	r := New("test")
	ctr := r.Counter("events")
	const workers, perWorker = 8, 10000
	par.Run(workers, func(w int) {
		for i := 0; i < perWorker; i++ {
			ctr.AddAt(w, 1)
		}
	})
	if got := ctr.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if vals := r.CounterValues(); vals["events"] != workers*perWorker {
		t.Fatalf("CounterValues = %v", vals)
	}
}

// TestCounterSameNameSharedInstance pins that concurrent Counter lookups of
// one name share cells: adds through either handle merge.
func TestCounterSameNameSharedInstance(t *testing.T) {
	r := New("test")
	par.Run(4, func(w int) {
		r.Counter("shared").AddAt(w, 1)
	})
	if got := r.Counter("shared").Value(); got != 4 {
		t.Fatalf("shared counter = %d, want 4", got)
	}
}

// TestConcurrentChildSpans starts children from parallel workers — the
// CRR.Sweep shape — and checks they all land in the tree. Run under -race.
func TestConcurrentChildSpans(t *testing.T) {
	r := New("test")
	sweep := r.Root().Start("sweep")
	par.Run(8, func(w int) {
		sp := sweep.Start("reduce")
		sp.WorkerBusy(w, time.Duration(w))
		sp.End()
	})
	sweep.End()
	tree := r.SpanTree()
	if len(tree.Children) != 1 || len(tree.Children[0].Children) != 8 {
		t.Fatalf("span tree shape: root has %d children", len(tree.Children))
	}
}

// TestSpanTreeJSONRoundTrip pins that a span tree survives
// marshal/unmarshal bit-exactly, the property manifests rely on.
func TestSpanTreeJSONRoundTrip(t *testing.T) {
	r := New("root")
	p1 := r.Root().Start("phase1")
	p1.WorkerBusy(0, 5*time.Millisecond)
	p1.WorkerBusy(2, 7*time.Millisecond)
	inner := p1.Start("inner")
	inner.End()
	p1.End()
	p2 := r.Root().Start("phase2")
	p2.End()
	r.Root().End()

	tree := r.SpanTree()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var back SpanNode
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree, &back) {
		t.Fatalf("span tree did not round-trip:\n  out: %+v\n  back: %+v", tree, &back)
	}
	if back.Name != "root" || len(back.Children) != 2 || back.Children[0].Name != "phase1" {
		t.Fatalf("unexpected tree shape: %+v", back)
	}
	if got := back.Children[0].WorkerBusyNs; len(got) != 3 || got[0] != 5e6 || got[2] != 7e6 {
		t.Fatalf("worker busy = %v", got)
	}
}

// TestSpanDurations checks the basic timing invariants: an ended span's
// duration is fixed, non-negative, and a child starts at or after its
// parent (offsets are relative to the recorder start).
func TestSpanDurations(t *testing.T) {
	r := New("root")
	sp := r.Root().Start("work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	before := r.SpanTree()
	time.Sleep(2 * time.Millisecond)
	after := r.SpanTree()
	w1, w2 := before.Children[0], after.Children[0]
	if w1.DurNs != w2.DurNs {
		t.Errorf("ended span duration drifted: %d != %d", w1.DurNs, w2.DurNs)
	}
	if w1.DurNs < (1 * time.Millisecond).Nanoseconds() {
		t.Errorf("span duration %dns shorter than the sleep", w1.DurNs)
	}
	if w1.StartNs < 0 {
		t.Errorf("child start offset %d negative", w1.StartNs)
	}
	// The never-ended root keeps growing until ended.
	if after.DurNs <= before.DurNs {
		t.Errorf("open root span did not advance: %d then %d", before.DurNs, after.DurNs)
	}
}

// TestSpanProgressAndETA pins the unit-progress contract: SetTotal/Done
// surface as done/total on the snapshot node, an open span with partial
// progress extrapolates a positive ETA, and ending the span freezes the
// numbers with no ETA.
func TestSpanProgressAndETA(t *testing.T) {
	r := New("root")
	sp := r.Root().Start("sweep")
	sp.SetTotal(4)
	sp.Done(1)
	time.Sleep(2 * time.Millisecond)
	sp.Done(1)
	n := r.SpanTree().Children[0]
	if n.Done != 2 || n.Total != 4 {
		t.Fatalf("progress = %d/%d, want 2/4", n.Done, n.Total)
	}
	if n.Ended {
		t.Fatal("open span snapshot marked ended")
	}
	if n.EtaNs <= 0 {
		t.Fatalf("open span at 2/4 has eta %d, want > 0", n.EtaNs)
	}
	if d, tot := sp.Progress(); d != 2 || tot != 4 {
		t.Fatalf("Progress() = %d/%d, want 2/4", d, tot)
	}
	sp.End()
	n = r.SpanTree().Children[0]
	if !n.Ended || n.EtaNs != 0 {
		t.Fatalf("ended span: ended=%v eta=%d, want true/0", n.Ended, n.EtaNs)
	}
}

// TestCounterNamesSorted pins the stable debug iteration order.
func TestCounterNamesSorted(t *testing.T) {
	r := New("test")
	r.Counter("zeta")
	r.Counter("alpha")
	got := r.counterNames()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("counterNames = %v", got)
	}
}
