package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"edgeshed/internal/obs"
)

// runManifest builds a shed manifest whose crr.sweep span took sweepNs,
// beside a sub-floor load span, on a fixed machine identity.
func runManifest(sweepNs int64, attempts int64) *obs.Manifest {
	return &obs.Manifest{
		Command: "shed", GoVersion: "go1.99", GOOS: "linux", GOARCH: "amd64", CPUs: 8,
		WallNs:   sweepNs + 5_000_000,
		Counters: map[string]int64{"crr.rewire.attempts": attempts},
		Spans: &obs.SpanNode{
			Name: "shed", DurNs: sweepNs + 5_000_000, Ended: true,
			Children: []*obs.SpanNode{
				{Name: "crr.sweep", DurNs: sweepNs, Ended: true},
				{Name: "load", DurNs: 200_000, Ended: true}, // below the gate floor
			},
		},
	}
}

// TestSyntheticRegressionGate is the gate's acceptance check end to end:
// a ≥25% regression under -max-regress 25% exits 1, a smaller one and an
// identical pair exit 0.
func TestSyntheticRegressionGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", runManifest(100_000_000, 40))
	for _, tc := range []struct {
		name string
		cur  *obs.Manifest
		want int
	}{
		{"regressed-30pct", runManifest(130_000_000, 40), 1},
		{"regressed-10pct", runManifest(110_000_000, 40), 0},
		{"identical", runManifest(100_000_000, 40), 0},
		{"improved", runManifest(70_000_000, 40), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := writeJSON(t, t.TempDir(), "cur.json", tc.cur)
			var out bytes.Buffer
			code, err := diff(&out, base, cur, "25%", false, nil)
			if err != nil {
				t.Fatalf("unexpected error: %v\n%s", err, out.String())
			}
			if code != tc.want {
				t.Errorf("exit code = %d, want %d\n%s", code, tc.want, out.String())
			}
		})
	}
}

// TestReportOnlyWithoutGate pins that an empty -max-regress never breaches,
// even on a huge regression.
func TestReportOnlyWithoutGate(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", runManifest(100_000_000, 0))
	cur := writeJSON(t, dir, "cur.json", runManifest(1_000_000_000, 0))
	var out bytes.Buffer
	code, err := diff(&out, base, cur, "", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("report-only run = (%d, %v), want (0, nil)", code, err)
	}
	if !strings.Contains(out.String(), "+900.0%") {
		t.Errorf("report does not show the ratio:\n%s", out.String())
	}
	if strings.Contains(out.String(), "ok:") {
		t.Errorf("report-only run printed a gate verdict:\n%s", out.String())
	}
}

// TestEnvRefusal pins the cross-machine rule: differing platforms are an
// error unless -allow-env-mismatch, and an unrecorded env is a warning.
func TestEnvRefusal(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", runManifest(100_000_000, 0))
	other := runManifest(100_000_000, 0)
	other.GOARCH = "arm64"
	cur := writeJSON(t, dir, "cur.json", other)

	var out bytes.Buffer
	if _, err := diff(&out, base, cur, "25%", false, nil); err == nil {
		t.Error("cross-machine comparison accepted without -allow-env-mismatch")
	}
	out.Reset()
	code, err := diff(&out, base, cur, "25%", true, nil)
	if err != nil || code != 0 {
		t.Fatalf("-allow-env-mismatch run = (%d, %v), want (0, nil)", code, err)
	}
	if !strings.Contains(out.String(), "warning:") {
		t.Errorf("downgraded mismatch not surfaced as warning:\n%s", out.String())
	}

	noEnv := runManifest(100_000_000, 0)
	noEnv.GoVersion, noEnv.GOOS, noEnv.GOARCH, noEnv.CPUs = "", "", "", 0
	curNoEnv := writeJSON(t, dir, "noenv.json", noEnv)
	out.Reset()
	code, err = diff(&out, base, curNoEnv, "", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("unrecorded-env run = (%d, %v), want (0, nil)", code, err)
	}
	if !strings.Contains(out.String(), "machine match unverified") {
		t.Errorf("unrecorded env not warned about:\n%s", out.String())
	}
}

// TestManifestDiff pins the manifest side: counter deltas are reported,
// span wall ratios are gated, and sub-floor spans never breach.
func TestManifestDiff(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", runManifest(80_000_000, 1000))
	var out bytes.Buffer
	code, err := diff(&out, base, writeJSON(t, dir, "same.json", runManifest(80_000_000, 1000)), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("identical manifests = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "crr.rewire.attempts") {
		t.Errorf("counter delta missing from report:\n%s", out.String())
	}

	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "slow.json", runManifest(120_000_000, 1000)), "25%", false, nil)
	if err != nil || code != 1 {
		t.Fatalf("regressed sweep span = (%d, %v), want (1, nil)\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "shed/crr.sweep") {
		t.Errorf("breach does not name the regressed span path:\n%s", out.String())
	}

	// A 10x blowup of a sub-floor span is noise, not a breach.
	noisy := runManifest(80_000_000, 1000)
	noisy.Spans.Children[1].DurNs = 2_000_000
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "noisy.json", noisy), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("sub-floor span blowup = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}
}

func TestParseMaxRegress(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		bad  bool
	}{
		{"", -1, false},
		{"25%", 0.25, false},
		{"0.25", 0.25, false},
		{"100%", 1, false},
		{"-5%", 0, true},
		{"nope", 0, true},
	} {
		got, err := parseMaxRegress(tc.in)
		if tc.bad != (err != nil) {
			t.Errorf("parseMaxRegress(%q) err = %v, want bad=%v", tc.in, err, tc.bad)
		}
		if err == nil && got != tc.want {
			t.Errorf("parseMaxRegress(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestDiffErrors pins the unusable-input paths: a missing file and a JSON
// document that is not a run manifest.
func TestDiffErrors(t *testing.T) {
	dir := t.TempDir()
	base := writeJSON(t, dir, "base.json", runManifest(1_000_000, 1))
	if _, err := diff(&bytes.Buffer{}, base, filepath.Join(dir, "absent.json"), "", false, nil); err == nil {
		t.Error("absent file accepted")
	}
	other := writeJSON(t, dir, "other.json", map[string]int{"hello": 1})
	if _, err := diff(&bytes.Buffer{}, base, other, "", false, nil); err == nil {
		t.Error("unrecognized document accepted")
	}
}

// histSnap builds a snapshot whose observations all sit in one power-of-two
// bucket, so quantiles land predictably near that bucket's range.
func histSnap(value int64, n int64) *obs.HistogramSnapshot {
	b := 0
	for v := value; v > 0; v >>= 1 {
		b++
	}
	buckets := make([]int64, b+1)
	buckets[b] = n
	return &obs.HistogramSnapshot{Count: n, Sum: value * n, Buckets: buckets}
}

// TestManifestDiffHistograms pins the histogram side of a manifest diff:
// p50/p99 are reported for every family, only *_ns families above the noise
// floor can gate, and one-sided families are surfaced without gating.
func TestManifestDiffHistograms(t *testing.T) {
	dir := t.TempDir()

	withHists := func(sweepValueNs int64) *obs.Manifest {
		m := runManifest(80_000_000, 1000)
		m.Histograms = map[string]*obs.HistogramSnapshot{
			"crr.sweep.ratio_ns":    histSnap(sweepValueNs, 3),
			"msbfs.batch_occupancy": histSnap(64, 100),
		}
		return m
	}
	base := writeJSON(t, dir, "hbase.json", withHists(40_000_000))

	// Identical histograms: reported, no breach.
	var out bytes.Buffer
	code, err := diff(&out, base, writeJSON(t, dir, "hsame.json", withHists(40_000_000)), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("identical histograms = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}
	for _, want := range []string{
		"histogram crr.sweep.ratio_ns p50",
		"histogram crr.sweep.ratio_ns p99",
		"histogram msbfs.batch_occupancy p50",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	// A 4x p50/p99 blowup of a *_ns family above the floor breaches the gate.
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "hslow.json", withHists(160_000_000)), "25%", false, nil)
	if err != nil || code != 1 {
		t.Fatalf("regressed duration histogram = (%d, %v), want (1, nil)\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "crr.sweep.ratio_ns") {
		t.Errorf("breach does not name the regressed histogram:\n%s", out.String())
	}

	// Non-duration families never gate, however much they move.
	shifted := withHists(40_000_000)
	shifted.Histograms["msbfs.batch_occupancy"] = histSnap(1, 100)
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "hshift.json", shifted), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("shifted occupancy histogram = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}

	// A family present on one side only is surfaced, not gated.
	extra := withHists(40_000_000)
	extra.Histograms["crr.delta_abs_micros"] = histSnap(500, 42)
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "hextra.json", extra), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("one-sided histogram = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "only in current") {
		t.Errorf("one-sided family not surfaced:\n%s", out.String())
	}
}

// TestHistogramGateFloorRegistry pins the unit registry: each registered
// suffix maps to its own noise floor, everything else is ungated.
func TestHistogramGateFloorRegistry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		floor float64
		gated bool
	}{
		{"crr.sweep.ratio_ns", 1e6, true},
		{"bfs.level_ns", 1e6, true},
		{"crr.delta_abs_micros", 1e3, true},
		{"bm2.gain_micros", 1e3, true},
		{"msbfs.batch_occupancy", 0, false},
		{"flatpq.heap_size", 0, false},
	} {
		floor, gated := histogramGateFloor(tc.name)
		if floor != tc.floor || gated != tc.gated {
			t.Errorf("histogramGateFloor(%q) = (%v, %v), want (%v, %v)",
				tc.name, floor, gated, tc.floor, tc.gated)
		}
	}
}

// TestMicrosHistogramGating pins the quality-histogram half of the unit
// registry end to end: a _micros family above its 1e3 floor gates like a
// duration, while one whose baseline quantile sits under the floor reports
// without breaching, however much it moves.
func TestMicrosHistogramGating(t *testing.T) {
	dir := t.TempDir()
	withMicros := func(gain, tiny int64) *obs.Manifest {
		m := runManifest(80_000_000, 1000)
		m.Histograms = map[string]*obs.HistogramSnapshot{
			"bm2.gain_micros":      histSnap(gain, 10),
			"crr.delta_abs_micros": histSnap(tiny, 10),
		}
		return m
	}
	base := writeJSON(t, dir, "mbase.json", withMicros(100_000, 100))

	// Identical: no breach.
	var out bytes.Buffer
	code, err := diff(&out, base, writeJSON(t, dir, "msame.json", withMicros(100_000, 100)), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("identical micros histograms = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}

	// 4x blowup of an above-floor _micros family breaches.
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "mworse.json", withMicros(400_000, 100)), "25%", false, nil)
	if err != nil || code != 1 {
		t.Fatalf("regressed micros histogram = (%d, %v), want (1, nil)\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "bm2.gain_micros") {
		t.Errorf("breach does not name the regressed family:\n%s", out.String())
	}

	// The sub-floor family (baseline quantile ~100 micros < 1e3) blowing up
	// 8x is rounding noise, never a breach.
	out.Reset()
	code, err = diff(&out, base, writeJSON(t, dir, "mnoise.json", withMicros(100_000, 800)), "25%", false, nil)
	if err != nil || code != 0 {
		t.Fatalf("sub-floor micros blowup = (%d, %v), want (0, nil)\n%s", code, err, out.String())
	}
}

// TestDirtyCommitWarnings pins that a run stamped with a "-dirty" commit
// is flagged on either side of a diff.
func TestDirtyCommitWarnings(t *testing.T) {
	dir := t.TempDir()
	clean := writeJSON(t, dir, "clean.json", runManifest(80_000_000, 1000))
	for _, side := range []string{"baseline", "current"} {
		dm := runManifest(80_000_000, 1000)
		dm.GitCommit = "def5678-dirty"
		dirty := writeJSON(t, dir, "dirty.json", dm)
		base, cur := dirty, clean
		if side == "current" {
			base, cur = clean, dirty
		}
		var out bytes.Buffer
		code, err := diff(&out, base, cur, "", false, nil)
		if err != nil || code != 0 {
			t.Fatalf("manifest diff = (%d, %v), want (0, nil)", code, err)
		}
		if !strings.Contains(out.String(), side+" was measured on a dirty worktree (def5678-dirty)") {
			t.Errorf("dirty %s not flagged:\n%s", side, out.String())
		}
	}

	// Clean on both sides: no dirty warning.
	var out bytes.Buffer
	code, err := diff(&out, clean, clean, "", false, nil)
	if err != nil || code != 0 {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "dirty worktree") {
		t.Errorf("clean manifests flagged as dirty:\n%s", out.String())
	}
}
