package msbfs

import (
	"time"

	"edgeshed/internal/obs"
)

// Meter is the one observability path of the MS-BFS kernels (closeness, the
// distance profile, batched Brandes). It owns what every kernel reports the
// same way — the msbfs.* engine counters folded from Stats, the per-batch
// wall-time, occupancy and level-width histograms, and the batch and
// direction-switch flight markers — so a kernel keeps only its own
// counters. A nil *Meter, which NewMeter returns for a disabled span, is the
// disabled state: it hands out inert WorkerMeters that neither allocate nor
// read the clock.
//
// A Meter only reads tallies the engine keeps anyway and times batches from
// outside, so kernel outputs are bit-identical with or without one.
type Meter struct {
	sp                                          *obs.Span
	batches, words, switches, topDown, bottomUp *obs.Counter
	batchNs, occupancy, levelWidth              *obs.Histogram
	batchMk, switchMk                           *obs.Marker
}

// NewMeter fetches the engine's metric handles from the kernel's span sp,
// labelling its flight markers with kernel. It returns nil when sp is nil.
func NewMeter(sp *obs.Span, kernel string) *Meter {
	if !sp.Enabled() {
		return nil
	}
	return &Meter{
		sp:         sp,
		batches:    sp.Counter("msbfs.batches_done"),
		words:      sp.Counter("msbfs.words_scanned"),
		switches:   sp.Counter("msbfs.direction_switches"),
		topDown:    sp.Counter("msbfs.topdown_levels"),
		bottomUp:   sp.Counter("msbfs.bottomup_levels"),
		batchNs:    sp.Histogram("msbfs.batch_ns"),
		occupancy:  sp.Histogram("msbfs.batch_occupancy"),
		levelWidth: sp.Histogram("msbfs.level_width"),
		batchMk:    sp.Marker(obs.EvBatch, kernel),
		switchMk:   sp.Marker(obs.EvDirSwitch, kernel),
	}
}

// WorkerMeter is one worker's view of a Meter, bound to the worker's slot
// and Traversal. It is a value so the disabled path allocates nothing; its
// zero value (from a nil Meter) records nothing.
type WorkerMeter struct {
	m           *Meter
	w           int
	t           *Traversal
	start, mark time.Time
}

// Worker starts worker w's share of the kernel on traversal t: from here on
// t emits each direction switch to the flight recorder on w's slot, as
// level<<1|bottomUp, and the worker's busy time starts counting.
func (m *Meter) Worker(w int, t *Traversal) WorkerMeter {
	if m == nil {
		return WorkerMeter{}
	}
	t.switchMk, t.slot = m.switchMk, w
	now := time.Now()
	return WorkerMeter{m: m, w: w, t: t, start: now, mark: now}
}

// Batch records one finished batch of nb sources: its wall time since the
// previous Batch (or Worker) call — the traversal plus whatever the kernel
// did with its levels — its occupancy and level widths, and a batch marker.
// Call it after the kernel has consumed the batch's levels.
func (wm *WorkerMeter) Batch(nb int) {
	m := wm.m
	if m == nil {
		return
	}
	now := time.Now()
	m.batchNs.ObserveAt(wm.w, now.Sub(wm.mark).Nanoseconds())
	wm.mark = now
	m.occupancy.ObserveAt(wm.w, int64(nb))
	m.batchMk.Emit(wm.w, int64(nb))
	for d := 0; d < wm.t.NumLevels(); d++ {
		nodes, _ := wm.t.Level(d)
		m.levelWidth.ObserveAt(wm.w, int64(len(nodes)))
	}
}

// End folds the traversal's cumulative Stats into the engine counters and
// records the worker's busy time. Call it once, after the worker's last
// batch.
func (wm *WorkerMeter) End() {
	wm.Fold()
	if wm.m != nil {
		wm.m.sp.WorkerBusy(wm.w, time.Since(wm.start))
	}
}

// Fold is End without the busy time, for a kernel whose one traversal
// serves a whole team of workers (batched Brandes): the kernel reports
// each worker's busy time itself. Call it once, after the last batch.
func (wm *WorkerMeter) Fold() {
	m := wm.m
	if m == nil {
		return
	}
	s := wm.t.Stats()
	m.batches.AddAt(wm.w, s.Batches)
	m.words.AddAt(wm.w, s.WordsScanned)
	m.switches.AddAt(wm.w, s.Switches)
	m.topDown.AddAt(wm.w, s.TopDownLevels)
	m.bottomUp.AddAt(wm.w, s.BottomUpLevels)
}
