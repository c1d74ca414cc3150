package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The Chrome trace-event exporter renders a manifest — span tree, flight
// events, final counters — as a JSON Array Format timeline that Perfetto
// and chrome://tracing load directly (-trace-events). The mapping
// (DESIGN.md §11):
//
//   - Spans become complete ("X") events on thread 0 ("main"). X events
//     carry their duration, so concurrent children (a parallel sweep's
//     per-ratio spans) need no B/E nesting discipline.
//   - Worker-slot runs (EvSlotBegin/EvSlotEnd, reported by par.Run and
//     par.Blocks) become duration B/E pairs on thread slot+1, one track
//     per worker slot — stride imbalance is visible as ragged track ends.
//   - Per-span worker busy stretches (EvWorkerBusy) become X events on the
//     worker's track, named after the span.
//   - Point events (direction switches, batch boundaries, rewire flushes,
//     PQ builds, sampler ticks, quality recordings, panics) become instant
//     ("i") events on their slot's track; rewire flushes, sampler ticks and
//     quality recordings additionally feed counter ("C") tracks.
//   - Final counter values land as one "C" sample each at the timeline's
//     end, and thread_name metadata labels every track.
//
// Timestamps are microseconds (the format's unit) relative to the run
// start.

// traceEvent is one Chrome trace-event record; the field subset the
// Perfetto JSON importer understands.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the exporter's top-level document (JSON Object Format).
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// usec converts a nanosecond offset to trace-event microseconds.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// spanXEvents flattens the span tree into X events on thread 0.
func spanXEvents(n *SpanNode, out []traceEvent) []traceEvent {
	if n == nil {
		return out
	}
	out = append(out, traceEvent{
		Name: n.Name,
		Ph:   "X",
		TS:   usec(n.StartNs),
		Dur:  usec(n.DurNs),
		PID:  1,
		TID:  0,
		Cat:  "span",
	})
	for _, c := range n.Children {
		out = spanXEvents(c, out)
	}
	return out
}

// WriteTraceEvents renders the manifest as a Chrome trace-event JSON
// document on w.
func WriteTraceEvents(w io.Writer, m *Manifest) error {
	if m == nil {
		return fmt.Errorf("obs: no manifest to export")
	}
	var evs []traceEvent
	evs = spanXEvents(m.Spans, evs)

	// Track which worker tids appear, for thread_name metadata.
	tids := map[int]bool{0: true}
	var endNs int64
	if m.Spans != nil {
		endNs = m.Spans.StartNs + m.Spans.DurNs
	}
	for _, e := range m.FlightEvents {
		if e.TSNs > endNs {
			endNs = e.TSNs
		}
		tid := 0
		if e.Slot >= 0 {
			tid = e.Slot + 1
		}
		tids[tid] = true
		switch e.Kind {
		case EvSpanBegin.String(), EvSpanEnd.String():
			// The span tree already rendered these as X events.
		case EvSlotBegin.String():
			evs = append(evs, traceEvent{
				Name: "par.slot", Ph: "B", TS: usec(e.TSNs), PID: 1, TID: tid, Cat: "slot",
				Args: map[string]any{"workers": e.Arg},
			})
		case EvSlotEnd.String():
			evs = append(evs, traceEvent{
				Name: "par.slot", Ph: "E", TS: usec(e.TSNs), PID: 1, TID: tid, Cat: "slot",
			})
		case EvWorkerBusy.String():
			// Stamped at the stretch's end with its length as the payload.
			start := e.TSNs - e.Arg
			if start < 0 {
				start = 0
			}
			evs = append(evs, traceEvent{
				Name: e.Name, Ph: "X", TS: usec(start), Dur: usec(e.Arg), PID: 1, TID: tid, Cat: "busy",
			})
		default:
			evs = append(evs, traceEvent{
				Name: e.Kind, Ph: "i", TS: usec(e.TSNs), PID: 1, TID: tid, Cat: "event", S: "t",
				Args: map[string]any{"name": e.Name, "arg": e.Arg},
			})
			switch e.Kind {
			case EvRewireFlush.String():
				evs = append(evs, traceEvent{
					Name: "crr.rewire_attempts", Ph: "C", TS: usec(e.TSNs), PID: 1, TID: 0,
					Args: map[string]any{"attempts": e.Arg},
				})
			case EvSamplerTick.String():
				evs = append(evs, traceEvent{
					Name: "heap_alloc_bytes", Ph: "C", TS: usec(e.TSNs), PID: 1, TID: 0,
					Args: map[string]any{"bytes": e.Arg},
				})
			case EvQuality.String():
				// One counter track per quality metric, so quality
				// inflections line up with the worker tracks. The flight
				// payload is micro-units; render natural units.
				evs = append(evs, traceEvent{
					Name: "quality." + e.Name, Ph: "C", TS: usec(e.TSNs), PID: 1, TID: 0,
					Args: map[string]any{"value": float64(e.Arg) / 1e6},
				})
			}
		}
	}

	// Final counter values, one C sample each at the end of the timeline so
	// the run's totals are readable off the counter tracks.
	for _, name := range sortedKeys(m.Counters) {
		evs = append(evs, traceEvent{
			Name: name, Ph: "C", TS: usec(endNs), PID: 1, TID: 0,
			Args: map[string]any{"value": m.Counters[name]},
		})
	}

	// Stable timestamp order: the trace-event spec wants non-decreasing ts,
	// and a stable sort keeps each track's B/E pairs ordered.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	// Balance B/E pairs per track: a wrapped flight ring can drop a begin
	// whose end survived (or vice versa), and importers reject unbalanced
	// duration events. Drop orphan Es, close dangling Bs at the timeline end.
	depth := map[int]int{}
	balanced := evs[:0]
	for _, e := range evs {
		switch e.Ph {
		case "B":
			depth[e.TID]++
		case "E":
			if depth[e.TID] == 0 {
				continue
			}
			depth[e.TID]--
		}
		balanced = append(balanced, e)
	}
	evs = balanced
	for tid, d := range depth {
		for ; d > 0; d-- {
			evs = append(evs, traceEvent{Name: "par.slot", Ph: "E", TS: usec(endNs), PID: 1, TID: tid, Cat: "slot"})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })

	// Metadata events name the tracks (ts-less, prepended after the sort so
	// they stay first).
	meta := make([]traceEvent, 0, len(tids))
	tidList := make([]int, 0, len(tids))
	for tid := range tids {
		tidList = append(tidList, tid)
	}
	sort.Ints(tidList)
	for _, tid := range tidList {
		name := "main"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	evs = append(meta, evs...)

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// writeTraceEventsFile writes the manifest's trace-event rendering to path,
// the Session.Close half of -trace-events.
func writeTraceEventsFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating trace-events file: %w", err)
	}
	if err := WriteTraceEvents(f, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: writing trace-events file: %w", err)
	}
	return nil
}
