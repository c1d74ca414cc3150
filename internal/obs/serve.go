package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The live debug plane: an opt-in stdlib HTTP server (bound via the
// -debug-addr flag, see CLI) that exposes the run's Recorder while it is
// still running — the counterpart of the post-mortem manifest. Endpoints:
//
//	/metrics        live counters, quality gauges, histograms, runtime/metrics
//	                in Prometheus text exposition format
//	/progress       the live span tree as JSON, with elapsed times, unit
//	                progress and ETAs
//	/events         the flight recorder's tail as JSON (?n= limits to the
//	                last n events)
//	/healthz        liveness probe, always "ok"
//	/debug/pprof/   the standard net/http/pprof profile handlers
//
// The server holds no state of its own: every scrape snapshots the Recorder
// (counters merge shards, the span tree copies under the span mutexes), so
// scraping is safe at any moment of a parallel kernel and never perturbs
// results — pinned by the concurrent-scrape race test.

// NewDebugHandler returns the debug plane's HTTP handler over rec. A nil
// Recorder is served gracefully (empty metric set, null span tree), so the
// handler can be constructed before recording starts.
func NewDebugHandler(rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, rec)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(progressSnapshot(rec))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := rec.Flight().Events()
		if nStr := r.URL.Query().Get("n"); nStr != "" {
			if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(events) {
				events = events[len(events)-n:]
			}
		}
		enc := json.NewEncoder(w)
		enc.Encode(struct {
			Events []Event `json:"events"`
		}{Events: events})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ProgressSnapshot is the /progress response: one consistent view of the
// run's live span tree.
type ProgressSnapshot struct {
	// Command is the root span's name, identifying the observed binary.
	Command string `json:"command"`
	// ElapsedNs is the wall time since the Recorder started.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Spans is the live span tree; open spans report their duration so far,
	// and spans with unit progress carry done/total/eta_ns.
	Spans *SpanNode `json:"spans"`
}

// progressSnapshot builds the /progress document; a nil Recorder yields an
// empty snapshot.
func progressSnapshot(rec *Recorder) *ProgressSnapshot {
	if rec == nil {
		return &ProgressSnapshot{}
	}
	tree := rec.SpanTree()
	return &ProgressSnapshot{
		Command:   tree.Name,
		ElapsedNs: time.Since(rec.start).Nanoseconds(),
		Spans:     tree,
	}
}

// metricHelp maps internal metric names (counter, histogram and quality
// probe registry keys) to their # HELP text. Metrics not listed fall back
// to a generic line; keeping the registry here — not at every call site —
// means one place to scan for the exposition vocabulary. The metric-name
// lint (metriclint_test.go) fails on any literal name a non-test call site
// registers without an entry here.
var metricHelp = map[string]string{
	"betweenness.mapped_bytes":   "Betweenness sigma/delta row and crossing-mask bytes mapped outside the Go heap.",
	"betweenness.sources_done":   "Brandes/MS-BFS betweenness source vertices completed.",
	"bm2.avg_dis":                "BM2 achieved average degree discrepancy per node.",
	"bm2.bound.theorem2":         "Theorem 2 bound on BM2 average discrepancy per node.",
	"bm2.delta":                  "BM2 final objective Δ (total degree discrepancy).",
	"bm2.gain_micros":            "Per-pop BM2 Phase 2 gain, in micro-units.",
	"bm2.headroom.theorem2":      "Theorem 2 bound minus achieved BM2 discrepancy (higher is better).",
	"bm2.kept_edges":             "Edges kept by the BM2 reduction.",
	"bm2.kept_fraction":          "Fraction of input edges kept by the BM2 reduction.",
	"bm2.matching_weight":        "Cumulative BM2 Phase 2 matching weight popped so far.",
	"bfs.sources_done":           "Distance-profile BFS source vertices completed.",
	"brandes.edge_folds":         "Edge-dependency fold operations in batched Brandes.",
	"claims.checked":             "Paper claims checked.",
	"claims.failed":              "Paper claims that failed verification.",
	"closeness.sources_done":     "Closeness centrality source vertices completed.",
	"crr.accept_rate":            "CRR Phase 2 swap acceptance rate over the last flush window.",
	"crr.avg_dis":                "CRR achieved average degree discrepancy per node.",
	"crr.bound.theorem1":         "Theorem 1 bound on CRR average discrepancy per node.",
	"crr.deg_err_linf":           "Maximum per-node degree discrepancy (L∞) at the last flush.",
	"crr.delta":                  "CRR Phase 2 objective Δ (total degree discrepancy), live trajectory.",
	"crr.delta_abs_micros":       "Absolute CRR deltaChange per rewiring attempt, in micro-units.",
	"crr.headroom.theorem1":      "Theorem 1 bound minus achieved CRR discrepancy (higher is better).",
	"crr.kept_edges":             "Edges kept by the CRR reduction.",
	"crr.kept_fraction":          "Fraction of input edges kept by the CRR reduction.",
	"crr.rewire.accepted":        "CRR Phase 2 rewiring attempts accepted.",
	"crr.rewire.attempts":        "CRR Phase 2 rewiring attempts examined.",
	"crr.sweep.ratio_ns":         "Wall time per CRR sweep ratio, in nanoseconds.",
	"flatpq.pops":                "Flat priority-queue pop operations.",
	"flatpq.pushes":              "Flat priority-queue push operations.",
	"flatpq.removes":             "Flat priority-queue remove operations.",
	"flatpq.updates":             "Flat priority-queue update operations.",
	"ingest.bytes":               "Input bytes ingested.",
	"ingest.edges":               "Edges ingested.",
	"ingest.lines":               "Input lines ingested.",
	"msbfs.batch_ns":             "Wall time per MS-BFS source batch, in nanoseconds.",
	"msbfs.batch_occupancy":      "Source bits carried per MS-BFS batch.",
	"msbfs.batches_done":         "MS-BFS source batches traversed.",
	"msbfs.bottomup_levels":      "MS-BFS levels expanded bottom-up.",
	"msbfs.direction_switches":   "MS-BFS direction-optimizing switches.",
	"msbfs.level_width":          "Nodes first reached per MS-BFS level.",
	"msbfs.topdown_levels":       "MS-BFS levels expanded top-down.",
	"msbfs.words_scanned":        "MS-BFS adjacency slots scanned.",
	"pack.bytes.out":             "Packed CSR bytes written.",
	"pack.spill.chunks":          "External-sort spill chunks written.",
	"pack.spill.keys":            "External-sort keys spilled.",
	"pagerank.iterations":        "PageRank power iterations.",
	"run_info":                   "Constant 1, labeled with the observed command.",
	"stream.deletes":             "Streaming edge deletions applied.",
	"stream.epoch.delta":         "Stream shedder objective Δ at the last insert epoch.",
	"stream.epoch.kept_fraction": "Fraction of seen edges kept at the last insert epoch.",
	"stream.epoch.swap_rate":     "Reservoir swaps accepted per insert over the last epoch.",
	"stream.inserts":             "Streaming edge insertions applied.",
	"stream.novel_kept":          "Streaming novel edges kept.",
	"stream.swaps_accepted":      "Streaming reservoir swaps accepted.",
}

// helpFor returns the HELP text for an internal metric name, with a
// generic fallback so every family always carries a HELP line.
func helpFor(name string) string {
	if h, ok := metricHelp[name]; ok {
		return h
	}
	return "edgeshed metric " + name + "."
}

// uniqueMetricNames maps internal names to unique exposition family names:
// prefix + sanitizeMetricName(name) + suffix, with "_2", "_3", … appended
// when sanitization collapses distinct internal names (e.g. "a.b" vs
// "a_b") onto one family — Prometheus treats duplicate families as
// corrupt, so collisions must disambiguate rather than silently merge.
// Names are processed in sorted order, so the assignment is deterministic.
func uniqueMetricNames(names []string, prefix, suffix string) map[string]string {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	taken := make(map[string]bool, len(sorted))
	out := make(map[string]string, len(sorted))
	for _, name := range sorted {
		m := prefix + sanitizeMetricName(name) + suffix
		for i := 2; taken[m]; i++ {
			m = fmt.Sprintf("%s%s_%d%s", prefix, sanitizeMetricName(name), i, suffix)
		}
		taken[m] = true
		out[name] = m
	}
	return out
}

// writeMetrics renders the Prometheus text exposition: every Recorder
// counter as an edgeshed_*_total counter, every quality probe as an
// edgeshed_quality_* gauge, every histogram as an edgeshed_* histogram
// family (cumulative power-of-two buckets), and the curated runtime/metrics
// set as go_* gauges — each family with # HELP and # TYPE lines. Families
// are emitted in sorted name order so consecutive scrapes diff cleanly.
func writeMetrics(w http.ResponseWriter, rec *Recorder) {
	if rec != nil {
		fmt.Fprintf(w, "# HELP edgeshed_run_info %s\n", helpFor("run_info"))
		fmt.Fprintf(w, "# TYPE edgeshed_run_info gauge\nedgeshed_run_info{command=%q} 1\n", rec.root.name)
		counters := rec.CounterValues()
		counterFams := uniqueMetricNames(sortedKeys(counters), "edgeshed_", "_total")
		for _, name := range sortedKeys(counters) {
			m := counterFams[name]
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m, helpFor(name), m, m, counters[name])
		}
		quals := rec.QualityValues()
		qualFams := uniqueMetricNames(sortedFloatKeys(quals), "edgeshed_quality_", "")
		for _, name := range sortedFloatKeys(quals) {
			m := qualFams[name]
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", m, helpFor(name), m, m, quals[name])
		}
		hists := rec.HistogramValues()
		histNames := make([]string, 0, len(hists))
		for name := range hists {
			histNames = append(histNames, name)
		}
		sort.Strings(histNames)
		histFams := uniqueMetricNames(histNames, "edgeshed_", "")
		for _, name := range histNames {
			writeHistogram(w, histFams[name], name, hists[name])
		}
	}
	rm := captureRuntimeMetrics()
	rmFams := uniqueMetricNames(sortedFloatKeys(rm), "go_", "")
	for _, name := range sortedFloatKeys(rm) {
		m := rmFams[name]
		fmt.Fprintf(w, "# HELP %s runtime/metrics %s\n# TYPE %s gauge\n%s %v\n", m, name, m, m, rm[name])
	}
}

// writeHistogram renders one histogram family in Prometheus exposition:
// cumulative power-of-two buckets (le = each bucket's inclusive upper
// bound), the +Inf bucket, exact sum and count.
func writeHistogram(w http.ResponseWriter, fam, name string, snap *HistogramSnapshot) {
	if snap == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", fam, helpFor(name), fam)
	var cum int64
	for b, n := range snap.Buckets {
		cum += n
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", fam, BucketUpper(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", fam, snap.Count)
	fmt.Fprintf(w, "%s_sum %d\n", fam, snap.Sum)
	fmt.Fprintf(w, "%s_count %d\n", fam, snap.Count)
}

// sanitizeMetricName maps an internal dotted or runtime/metrics-style name
// onto the Prometheus charset [a-zA-Z0-9_]: every other rune becomes '_',
// runs collapse, and edges are trimmed ("crr.rewire.attempts" →
// "crr_rewire_attempts", "/memory/classes/heap/objects:bytes" →
// "memory_classes_heap_objects_bytes").
func sanitizeMetricName(name string) string {
	var b strings.Builder
	lastUnderscore := true // trims a leading separator
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			r = '_'
		}
		if r == '_' {
			if lastUnderscore {
				continue
			}
			lastUnderscore = true
		} else {
			lastUnderscore = false
		}
		b.WriteRune(r)
	}
	return strings.TrimSuffix(b.String(), "_")
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedFloatKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// debugServer is one live debug plane: the listener and the goroutine
// serving it, owned by a Session.
type debugServer struct {
	l   net.Listener
	srv *http.Server
}

// startDebugServer binds addr and serves the debug plane for rec in a
// background goroutine until stopped.
func startDebugServer(addr string, rec *Recorder) (*debugServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: binding -debug-addr %s: %w", addr, err)
	}
	d := &debugServer{l: l, srv: &http.Server{Handler: NewDebugHandler(rec)}}
	go d.srv.Serve(l)
	return d, nil
}

// Addr returns the server's bound address (useful with ":0").
func (d *debugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.l.Addr().String()
}

// debugShutdownTimeout bounds how long stop waits for in-flight scrapes; a
// variable so the regression test can tighten it.
var debugShutdownTimeout = 2 * time.Second

// stop shuts the server down gracefully: new connections stop being
// accepted immediately, but an in-flight scrape — say a final /metrics pull
// racing Session.Close — gets up to debugShutdownTimeout to finish its
// response body instead of being cut mid-line. Only if the deadline passes
// is the server torn down hard.
func (d *debugServer) stop() {
	if d == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), debugShutdownTimeout)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
}
