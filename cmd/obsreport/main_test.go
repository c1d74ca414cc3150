package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgeshed/internal/obs"
)

// writeJSON marshals v into dir/name and returns the path.
func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// manifest builds a minimal shed run manifest with the given start stamp,
// commit and quality timeline, on a fixed machine identity.
func manifest(start, commit string, quality []obs.QualityPoint) *obs.Manifest {
	return &obs.Manifest{
		Command:   "shed",
		GoVersion: "go1.23.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		CPUs:      8,
		StartUTC:  start,
		GitCommit: commit,
		Quality:   quality,
	}
}

// qp is a quality-point literal helper.
func qp(metric string, ratio, value float64, better string) obs.QualityPoint {
	return obs.QualityPoint{Metric: metric, Ratio: ratio, Value: value, Better: better}
}

func TestReportTrendTable(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "aaa1111", []obs.QualityPoint{
		qp("crr.delta", 0.5, 30, "lower"),
		qp("crr.delta", 0.5, 24.5, "lower"), // later point wins the column
		qp("crr.headroom.theorem1", 0.5, 2.5, "higher"),
	}))
	writeJSON(t, dir, "run2.json", manifest("2026-01-02T10:00:00Z", "bbb2222", []obs.QualityPoint{
		qp("crr.delta", 0.5, 24.5, "lower"),
		qp("crr.kept_edges", 0.5, 117, "info"), // only in run 2
	}))
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{args: []string{dir}}, nil)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v\n%s", code, err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"## shed — go1.23.0 linux/amd64, 8 CPUs",
		"run 1: run1.json (2026-01-01T10:00:00Z) @aaa1111",
		"run 2: run2.json (2026-01-02T10:00:00Z) @bbb2222",
		"| crr.delta | 0.5 | lower | 24.5 | 24.5 |",
		"| crr.headroom.theorem1 | 0.5 | higher | 2.5 | — |",
		"| crr.kept_edges | 0.5 | info | — | 117 |",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestGateCatchesRegression(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "", []obs.QualityPoint{
		qp("crr.delta", 0.5, 20, "lower"),
		qp("suite.top-10% query", 0, 0.9, "higher"),
	}))
	writeJSON(t, dir, "run2.json", manifest("2026-01-02T10:00:00Z", "", []obs.QualityPoint{
		qp("crr.delta", 0.5, 20, "lower"),           // unchanged: ok
		qp("suite.top-10% query", 0, 0.4, "higher"), // utility halved: breach
	}))
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{maxRegress: "10%", args: []string{dir}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("code = %d, want 1 (gate breach)\n%s", code, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "BREACH") || !strings.Contains(got, "suite.top-10% query") {
		t.Errorf("breach report missing the regressed series:\n%s", got)
	}
	if strings.Contains(got, "crr.delta@") {
		t.Errorf("unchanged series reported as breach:\n%s", got)
	}
}

func TestGatePassesOnIdenticalAndSkipsInfo(t *testing.T) {
	dir := t.TempDir()
	pts := func(bound float64) []obs.QualityPoint {
		return []obs.QualityPoint{
			qp("crr.delta", 0.5, 24.5, "lower"),
			qp("crr.headroom.theorem1", 0.5, 2.5, "higher"),
			qp("crr.bound.theorem1", 0.5, bound, "info"), // info: moves freely
		}
	}
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "", pts(2.8)))
	writeJSON(t, dir, "run2.json", manifest("2026-01-02T10:00:00Z", "", pts(99)))
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{maxRegress: "10%", args: []string{dir}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("code = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok: no directional quality series regressed") {
		t.Errorf("missing gate ok line:\n%s", out.String())
	}
}

// TestDirtyCommitWarning pins that the trend legend flags a run stamped
// with a "-dirty" commit.
func TestDirtyCommitWarning(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "abc1234-dirty", []obs.QualityPoint{
		qp("crr.delta", 0.5, 24.5, "lower"),
	}))
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{args: []string{dir}}, nil)
	if err != nil || code != 0 {
		t.Fatalf("trend: code=%d err=%v", code, err)
	}
	if !strings.Contains(out.String(), "run1.json was measured on a dirty worktree") {
		t.Errorf("missing dirty-worktree warning:\n%s", out.String())
	}
}

// TestEnvGroupsSeparate pins the cross-machine rule: manifests from
// different machines never share a trend line, so a value shift across
// machines cannot breach the gate.
func TestEnvGroupsSeparate(t *testing.T) {
	dir := t.TempDir()
	m1 := manifest("2026-01-01T10:00:00Z", "", []obs.QualityPoint{qp("crr.delta", 0.5, 10, "lower")})
	m2 := manifest("2026-01-02T10:00:00Z", "", []obs.QualityPoint{qp("crr.delta", 0.5, 100, "lower")})
	m2.CPUs = 64 // different machine
	writeJSON(t, dir, "run1.json", m1)
	writeJSON(t, dir, "run2.json", m2)
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{maxRegress: "10%", args: []string{dir}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("cross-machine shift breached the gate:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "## shed —"); n != 2 {
		t.Errorf("%d shed groups, want 2 (one per machine):\n%s", n, out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "aaa1111", []obs.QualityPoint{
		qp("crr.delta", 0.5, 24.5, "lower"),
	}))
	jsonOut := filepath.Join(dir, "out", "trend.json")
	if err := os.Mkdir(filepath.Dir(jsonOut), 0o755); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{jsonPath: jsonOut, args: []string{filepath.Join(dir, "run1.json")}}, nil)
	if err != nil || code != 0 {
		t.Fatalf("run: code=%d err=%v", code, err)
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("-json output is not a report: %v", err)
	}
	if len(rep.Groups) != 1 || len(rep.Groups[0].Series) != 1 {
		t.Fatalf("report = %+v, want 1 group with 1 series", rep)
	}
	s := rep.Groups[0].Series[0]
	if s.Metric != "crr.delta" || s.Ratio != 0.5 || len(s.Values) != 1 || s.Values[0] == nil || *s.Values[0] != 24.5 {
		t.Errorf("series = %+v", s)
	}
	if rep.Groups[0].Runs[0].GitCommit != "aaa1111" {
		t.Errorf("run commit = %+v", rep.Groups[0].Runs[0])
	}
}

func TestSkipsUnrecognizedFiles(t *testing.T) {
	dir := t.TempDir()
	writeJSON(t, dir, "run1.json", manifest("2026-01-01T10:00:00Z", "", []obs.QualityPoint{
		qp("crr.delta", 0.5, 24.5, "lower"),
	}))
	if err := os.WriteFile(filepath.Join(dir, "stray.json"), []byte(`{"neither": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := trend(&out, reportOpts{args: []string{dir}}, nil)
	if err != nil || code != 0 {
		t.Fatalf("stray files broke the report: code=%d err=%v", code, err)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := trend(&bytes.Buffer{}, reportOpts{args: []string{filepath.Join(dir, "nope")}}, nil); err == nil {
		t.Error("missing path accepted")
	}
	if _, err := trend(&bytes.Buffer{}, reportOpts{args: []string{dir}}, nil); err == nil {
		t.Error("empty directory produced a report")
	}
	writeJSON(t, dir, "run1.json", manifest("", "", nil))
	if _, err := trend(&bytes.Buffer{}, reportOpts{maxRegress: "banana", args: []string{dir}}, nil); err == nil {
		t.Error("malformed -max-regress accepted")
	}
}
