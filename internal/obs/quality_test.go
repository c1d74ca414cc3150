package obs

import (
	"io"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgeshed/internal/par"
)

// TestQualityProbeRecord pins the probe surface: latest-value gauge,
// direction spelling, timeline accumulation, and the zero-ratio omission.
func TestQualityProbeRecord(t *testing.T) {
	r := New("test")
	d := r.Quality("crr.delta")
	h := r.Root().Quality("crr.headroom.theorem1")
	i := r.Quality("crr.kept_edges")

	if _, ok := d.Value(); ok {
		t.Error("unrecorded probe reports a value")
	}
	if r.QualityValues() != nil {
		t.Errorf("QualityValues before any record = %v, want nil", r.QualityValues())
	}

	d.Record(0.5, 120)
	d.RecordAt(3, 0.5, 80)
	h.Record(0.5, 2.25)
	i.Record(0, 4096)

	if v, ok := d.Value(); !ok || v != 80 {
		t.Errorf("delta probe Value = (%v, %v), want (80, true)", v, ok)
	}
	want := map[string]float64{
		"crr.delta":             80,
		"crr.headroom.theorem1": 2.25,
		"crr.kept_edges":        4096,
	}
	if got := r.QualityValues(); !reflect.DeepEqual(got, want) {
		t.Errorf("QualityValues = %v, want %v", got, want)
	}

	pts := r.QualityPoints()
	if len(pts) != 4 {
		t.Fatalf("QualityPoints length = %d, want 4", len(pts))
	}
	for _, pt := range pts {
		switch pt.Metric {
		case "crr.delta":
			if pt.Better != "lower" || pt.Ratio != 0.5 {
				t.Errorf("delta point = %+v", pt)
			}
		case "crr.headroom.theorem1":
			if pt.Better != "higher" {
				t.Errorf("headroom point = %+v", pt)
			}
		case "crr.kept_edges":
			if pt.Better != "info" || pt.Ratio != 0 {
				t.Errorf("info point = %+v", pt)
			}
		default:
			t.Errorf("unexpected metric %q", pt.Metric)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].OffsetNs < pts[i-1].OffsetNs {
			t.Errorf("timeline not offset-ordered: %+v after %+v", pts[i], pts[i-1])
		}
	}
}

// TestQualityProbeSameNameShared pins that repeated lookups of one metric
// return the same probe, so recordings merge, that the probe's direction
// is its declaration's, and that an undeclared name records as info.
func TestQualityProbeSameNameShared(t *testing.T) {
	r := New("test")
	a := r.Quality("crr.delta")
	b := r.Quality("crr.delta")
	if a != b {
		t.Fatal("same-name probes are distinct instances")
	}
	b.Record(0, 7)
	r.Quality("m").Record(0, 1)
	if pts := r.QualityPoints(); len(pts) != 2 || pts[0].Better != "lower" || pts[1].Better != "info" {
		t.Errorf("points = %+v, want one 'lower' point, then one 'info' point", pts)
	}
}

// TestQualityFlightEvents pins the third emission surface: every recording
// lands an EvQuality event carrying the metric name and the micro-scaled
// value.
func TestQualityFlightEvents(t *testing.T) {
	r := New("test")
	r.Quality("bm2.matching_weight").RecordAt(2, 0.3, 1.5)
	var got []Event
	for _, e := range r.Flight().Events() {
		if e.Kind == "quality" {
			got = append(got, e)
		}
	}
	if len(got) != 1 {
		t.Fatalf("quality flight events = %d, want 1", len(got))
	}
	if got[0].Name != "bm2.matching_weight" || got[0].Arg != 1_500_000 || got[0].Slot != 2 {
		t.Errorf("quality event = %+v, want name=bm2.matching_weight arg=1500000 slot=2", got[0])
	}
}

// TestQualityConcurrentRecords drives probes from parallel workers — the
// Sweep shape — under -race (make race), checking nothing tears and every
// recording lands in the timeline.
func TestQualityConcurrentRecords(t *testing.T) {
	r := New("test")
	const workers, per = 8, 50
	par.Run(workers, func(w int) {
		p := r.Quality("m")
		for i := 0; i < per; i++ {
			p.RecordAt(w, 0.5, float64(i))
		}
	})
	if pts := r.QualityPoints(); len(pts) != workers*per {
		t.Fatalf("timeline length = %d, want %d", len(pts), workers*per)
	}
	if _, ok := r.Quality("m").Value(); !ok {
		t.Fatal("no latest value after concurrent records")
	}
}

// TestQualityMetricsExposition pins the /metrics rendering: quality gauges
// as edgeshed_quality_* families with HELP and TYPE lines.
func TestQualityMetricsExposition(t *testing.T) {
	r := New("test")
	r.Quality("crr.headroom.theorem1").Record(0.5, 2.5)
	srv := httptest.NewServer(NewDebugHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# HELP edgeshed_quality_crr_headroom_theorem1 ",
		"# TYPE edgeshed_quality_crr_headroom_theorem1 gauge",
		"edgeshed_quality_crr_headroom_theorem1 2.5",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestQualityManifestRoundTrip pins the manifest serialization of the
// quality timeline and the git_commit stamp.
func TestQualityManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Command:   "shed",
		GitCommit: "abc1234",
		Quality: []QualityPoint{
			{OffsetNs: 10, Metric: "crr.delta", Ratio: 0.5, Value: 80, Better: "lower"},
			{OffsetNs: 20, Metric: "crr.headroom.theorem1", Ratio: 0.5, Value: 2.25, Better: "higher"},
		},
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GitCommit != "abc1234" {
		t.Errorf("GitCommit = %q", got.GitCommit)
	}
	if !reflect.DeepEqual(got.Quality, m.Quality) {
		t.Errorf("quality timeline did not round-trip:\n got %+v\nwant %+v", got.Quality, m.Quality)
	}
}

// TestDirtyCommit pins the dirty-worktree stamp vocabulary on forged envs,
// the satellite's cross-run hygiene check.
func TestDirtyCommit(t *testing.T) {
	if !DirtyCommit("abc1234-dirty") || DirtyCommit("abc1234") || DirtyCommit("") {
		t.Error("DirtyCommit misclassifies")
	}
	dirty := &Env{GitCommit: "abc1234-dirty"}
	clean := &Env{GitCommit: "abc1234"}
	var unrecorded *Env
	if !dirty.Dirty() || clean.Dirty() || unrecorded.Dirty() {
		t.Error("Env.Dirty misclassifies")
	}
}

// TestTraceEventsQualityCounterTrack pins the Perfetto rendering: an
// EvQuality flight event becomes both an instant event and a quality.*
// counter-track sample in natural units.
func TestTraceEventsQualityCounterTrack(t *testing.T) {
	m := &Manifest{
		Command: "shed",
		Spans:   &SpanNode{Name: "shed", DurNs: 1000, Ended: true},
		FlightEvents: []Event{
			{TSNs: 500, Slot: 1, Kind: "quality", Name: "crr.delta", Arg: 2_500_000},
		},
	}
	var sb strings.Builder
	if err := WriteTraceEvents(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"quality.crr.delta"`) {
		t.Errorf("trace export missing the quality counter track:\n%s", out)
	}
	if !strings.Contains(out, `"value":2.5`) {
		t.Errorf("trace export did not rescale micro-units:\n%s", out)
	}
}
