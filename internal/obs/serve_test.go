package obs_test

// External test package: the concurrent-scrape test drives a real kernel
// (core.CRR) under the debug plane, and core already imports obs.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
	"edgeshed/internal/stream"
)

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestDebugHandlerEndpoints pins the debug plane's surface: /healthz
// liveness, /metrics in Prometheus text exposition with sanitized names,
// /progress as a span-tree JSON document, and the pprof index.
func TestDebugHandlerEndpoints(t *testing.T) {
	rec := obs.New("shed")
	rec.Counter("crr.rewire.attempts").Add(123)
	sp := rec.Root().Start("crr.sweep")
	sp.SetTotal(10)
	sp.Done(4)

	srv := httptest.NewServer(obs.NewDebugHandler(rec))
	defer srv.Close()

	body, resp := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	body, resp = get(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type = %q, want Prometheus text exposition", ct)
	}
	for _, want := range []string{
		"# TYPE edgeshed_crr_rewire_attempts_total counter",
		"edgeshed_crr_rewire_attempts_total 123",
		`edgeshed_run_info{command="shed"} 1`,
		"go_sched_gomaxprocs_threads",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, _ = get(t, srv.URL+"/progress")
	var snap obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, body)
	}
	if snap.Command != "shed" || snap.ElapsedNs <= 0 {
		t.Errorf("/progress header = %+v", snap)
	}
	if snap.Spans == nil || len(snap.Spans.Children) != 1 {
		t.Fatalf("/progress span tree = %+v", snap.Spans)
	}
	sweep := snap.Spans.Children[0]
	if sweep.Name != "crr.sweep" || sweep.Done != 4 || sweep.Total != 10 || sweep.EtaNs <= 0 {
		t.Errorf("open sweep span = %+v, want 4/10 with positive eta", sweep)
	}

	body, resp = get(t, srv.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestMetricsHelpAndHistograms pins the exposition satellites: every family
// carries a registry HELP line (curated text for known names, a generic
// fallback otherwise), histograms render as cumulative bucket families, and
// sanitization collisions ("a.b" vs "a_b") surface as distinct families
// instead of a corrupt duplicate.
func TestMetricsHelpAndHistograms(t *testing.T) {
	rec := obs.New("shed")
	rec.Counter("crr.rewire.attempts").Add(9)
	rec.Counter("made.up.name").Add(1)
	rec.Counter("a.b").Add(1)
	rec.Counter("a_b").Add(2)
	h := rec.Histogram("msbfs.batch_ns")
	for _, v := range []int64{100, 200, 400} {
		h.Observe(v)
	}

	srv := httptest.NewServer(obs.NewDebugHandler(rec))
	defer srv.Close()
	body, _ := get(t, srv.URL+"/metrics")

	for _, want := range []string{
		"# HELP edgeshed_crr_rewire_attempts_total CRR Phase 2 rewiring attempts examined.",
		"# HELP edgeshed_made_up_name_total edgeshed metric made.up.name.",
		"# HELP edgeshed_msbfs_batch_ns Wall time per MS-BFS source batch, in nanoseconds.",
		"# TYPE edgeshed_msbfs_batch_ns histogram",
		`edgeshed_msbfs_batch_ns_bucket{le="+Inf"} 3`,
		"edgeshed_msbfs_batch_ns_sum 700",
		"edgeshed_msbfs_batch_ns_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The collision pair: "a.b" sorts first and keeps the clean family,
	// "a_b" is disambiguated — both present, values distinguishable.
	if !strings.Contains(body, "edgeshed_a_b_total 1") || !strings.Contains(body, "edgeshed_a_b_2_total 2") {
		t.Errorf("sanitization collision not disambiguated:\n%s", body)
	}
	if strings.Count(body, "# TYPE edgeshed_a_b_total counter") != 1 {
		t.Errorf("duplicate family for edgeshed_a_b_total:\n%s", body)
	}
	// Cumulative buckets are non-decreasing and end at the count.
	var lastCum int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "edgeshed_msbfs_batch_ns_bucket") {
			continue
		}
		var cum int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if cum < lastCum {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, lastCum)
		}
		lastCum = cum
	}
	if lastCum != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", lastCum)
	}
}

// TestDebugHandlerEvents pins the /events endpoint: the flight recorder's
// tail as JSON, with ?n= limiting to the newest n events.
func TestDebugHandlerEvents(t *testing.T) {
	rec := obs.New("shed")
	mk := rec.Flight().Marker(obs.EvBatch, "serve")
	for i := 0; i < 10; i++ {
		mk.Emit(0, int64(i))
	}

	srv := httptest.NewServer(obs.NewDebugHandler(rec))
	defer srv.Close()

	var doc struct {
		Events []obs.Event `json:"events"`
	}
	body, resp := get(t, srv.URL+"/events")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/events content type = %q", ct)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events is not JSON: %v\n%s", err, body)
	}
	var batches int
	for _, e := range doc.Events {
		if e.Kind == "batch" && e.Name == "serve" {
			batches++
		}
	}
	if batches != 10 {
		t.Fatalf("/events returned %d batch events, want 10", batches)
	}

	body, _ = get(t, srv.URL+"/events?n=3")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events?n=3 is not JSON: %v", err)
	}
	if len(doc.Events) != 3 {
		t.Fatalf("/events?n=3 returned %d events", len(doc.Events))
	}
	// The tail keeps the newest: the last emitted args.
	if doc.Events[2].Arg != 9 {
		t.Errorf("tail not the newest events: %+v", doc.Events)
	}

	// Without a recorder, /events degrades to an empty list.
	nilSrv := httptest.NewServer(obs.NewDebugHandler(nil))
	defer nilSrv.Close()
	body, resp = get(t, nilSrv.URL+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/events without recorder = %d", resp.StatusCode)
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/events without recorder is not JSON: %v", err)
	}
	if len(doc.Events) != 0 {
		t.Fatalf("/events without recorder returned events: %+v", doc.Events)
	}
}

// TestDebugHandlerNilRecorder pins that the plane degrades gracefully with
// no recorder: runtime metrics still flow, progress is an empty document.
func TestDebugHandlerNilRecorder(t *testing.T) {
	srv := httptest.NewServer(obs.NewDebugHandler(nil))
	defer srv.Close()
	body, resp := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "go_") {
		t.Errorf("/metrics without recorder = %d:\n%s", resp.StatusCode, body)
	}
	if strings.Contains(body, "edgeshed_") {
		t.Errorf("/metrics without recorder emits app metrics:\n%s", body)
	}
	body, resp = get(t, srv.URL+"/progress")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/progress without recorder = %d", resp.StatusCode)
	}
	var snap obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
}

// TestConcurrentScrapeDuringSweep is the issue's race check: /metrics,
// /progress and /events are hammered from a goroutine while CRR.Sweep runs
// at Workers=4 with the flight recorder installed as the par slot observer,
// under -race in CI (make race), and the swept edge sets must be
// bit-identical to an unobserved, unscraped run.
func TestConcurrentScrapeDuringSweep(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	ps := []float64{0.7, 0.5, 0.3}
	base := core.CRR{Seed: 11, Steps: 4000, Workers: 4}
	want, err := base.Sweep(g, ps)
	if err != nil {
		t.Fatal(err)
	}

	rec := obs.New("scrape-test")
	prev := par.SetSlotObserver(rec.Flight())
	defer par.SetSlotObserver(prev)
	srv := httptest.NewServer(obs.NewDebugHandler(rec))
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/progress", "/events"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	observed := base
	observed.Obs = rec.Root()
	got, err := observed.Sweep(g, ps)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		assertSameEdges(t, want[i].Reduced, got[i].Reduced)
	}
	// The observed run recorded real flight traffic and histograms.
	if len(rec.Flight().Events()) == 0 {
		t.Error("observed sweep emitted no flight events")
	}
	if hv := rec.HistogramValues(); hv["crr.sweep.ratio_ns"] == nil || hv["crr.sweep.ratio_ns"].Count != int64(len(ps)) {
		t.Errorf("crr.sweep.ratio_ns histogram = %+v, want count %d", hv["crr.sweep.ratio_ns"], len(ps))
	}
	// The quality plane recorded under concurrent scraping too: the sweep's
	// per-ratio probes landed, and the final theorem headroom is coherent.
	qv := rec.QualityValues()
	for _, metric := range []string{"crr.delta", "crr.headroom.theorem1", "crr.kept_edges"} {
		if _, ok := qv[metric]; !ok {
			t.Errorf("quality gauge %s missing after scraped sweep: %v", metric, qv)
		}
	}
	// A final scrape of the settled recorder exposes the quality families.
	body, _ := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "edgeshed_quality_crr_delta") {
		t.Errorf("/metrics missing edgeshed_quality_crr_delta:\n%.400s", body)
	}
}

// TestConcurrentScrapeDuringStreamIngest extends the scrape-during-work
// bit-identity pin to the stream shedder: hammering /metrics and /progress
// while a multi-epoch ingestion folds its quality probes must not change a
// single kept edge, and the settled exposition carries the epoch families.
func TestConcurrentScrapeDuringStreamIngest(t *testing.T) {
	g := gen.BarabasiAlbert(12_000, 3, 11) // ~36k inserts: > 2 epochs
	ingest := func(sp *obs.Span) *stream.Shedder {
		s, err := stream.NewShedder(stream.Options{P: 0.5, Seed: 5, Nodes: g.NumNodes(), Obs: sp})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if err := s.Insert(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	want := ingest(nil)
	if want.Seen() < 2*stream.StreamEpoch {
		t.Fatalf("stream too short to cross two epochs: %d inserts", want.Seen())
	}

	rec := obs.New("scrape-stream-test")
	srv := httptest.NewServer(obs.NewDebugHandler(rec))
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/progress"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	got := ingest(rec.Root())
	close(stop)
	wg.Wait()

	we, ge := want.Edges(), got.Edges()
	if len(we) != len(ge) {
		t.Fatalf("kept counts differ under scraping: %d vs %d", len(we), len(ge))
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("kept edge %d differs under scraping: %v vs %v", i, we[i], ge[i])
		}
	}
	body, _ := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "edgeshed_quality_stream_epoch_delta") {
		t.Errorf("/metrics missing edgeshed_quality_stream_epoch_delta:\n%.400s", body)
	}
}

// assertSameEdges is the bit-identity criterion: the exact same edge list.
func assertSameEdges(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ under scraping: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs under scraping: %v vs %v", i, ae[i], be[i])
		}
	}
}
