package obs

// Unit tests for the live telemetry plane's unexported pieces: metric name
// sanitization, the runtime sampler, env comparability, heartbeat
// rendering, JSON logging, and the full -debug-addr/-sample-interval
// session lifecycle. The HTTP handler surface and the concurrent-scrape
// race test live in serve_test.go (external package).

import (
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edgeshed/internal/par"
)

func TestSanitizeMetricName(t *testing.T) {
	for _, tc := range [][2]string{
		{"crr.rewire.attempts", "crr_rewire_attempts"},
		{"/memory/classes/heap/objects:bytes", "memory_classes_heap_objects_bytes"},
		{"already_fine_123", "already_fine_123"},
		{"..weird..name..", "weird_name"},
		{"", ""},
	} {
		if got := sanitizeMetricName(tc[0]); got != tc[1] {
			t.Errorf("sanitizeMetricName(%q) = %q, want %q", tc[0], got, tc[1])
		}
	}
}

// TestSamplerCollectsTimeline pins the sampler contract: an immediate
// first sample, monotone non-decreasing offsets, a final sample on Stop,
// and plausible runtime observations.
func TestSamplerCollectsTimeline(t *testing.T) {
	origin := time.Now()
	s := startSampler(2*time.Millisecond, origin, nil)
	time.Sleep(10 * time.Millisecond)
	timeline := s.Stop()
	if len(timeline) < 3 {
		t.Fatalf("timeline has %d samples after 10ms at 2ms interval, want >= 3", len(timeline))
	}
	for i, p := range timeline {
		if p.HeapAllocBytes == 0 || p.Goroutines <= 0 {
			t.Errorf("sample %d implausible: %+v", i, p)
		}
		if i > 0 && p.OffsetNs < timeline[i-1].OffsetNs {
			t.Errorf("offsets not monotone at %d: %d then %d", i, timeline[i-1].OffsetNs, p.OffsetNs)
		}
	}
	var nilSampler *sampler
	if nilSampler.Stop() != nil || nilSampler.Samples() != nil {
		t.Error("nil sampler returned samples")
	}
}

func TestEnvComparable(t *testing.T) {
	a := &Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUs: 8}
	if w, err := a.Comparable(a); w != "" || err != nil {
		t.Errorf("identical envs = (%q, %v)", w, err)
	}
	arch := *a
	arch.GOARCH = "arm64"
	if _, err := a.Comparable(&arch); err == nil {
		t.Error("platform mismatch accepted")
	}
	cpus := *a
	cpus.CPUs = 4
	if _, err := a.Comparable(&cpus); err == nil {
		t.Error("cpu count mismatch accepted")
	}
	tc := *a
	tc.GoVersion = "go1.25.0"
	if w, err := a.Comparable(&tc); err != nil || !strings.Contains(w, "toolchain") {
		t.Errorf("toolchain drift = (%q, %v), want warning", w, err)
	}
	if w, err := a.Comparable(nil); err != nil || !strings.Contains(w, "unverified") {
		t.Errorf("nil side = (%q, %v), want unverified warning", w, err)
	}
	var nilEnv *Env
	if w, err := nilEnv.Comparable(a); err != nil || w == "" {
		t.Errorf("nil receiver = (%q, %v), want unverified warning", w, err)
	}
}

func TestCaptureEnvDescribesProcess(t *testing.T) {
	e := CaptureEnv()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.CPUs <= 0 {
		t.Fatalf("CaptureEnv() = %+v", e)
	}
}

func TestHeartbeatLine(t *testing.T) {
	if got := heartbeatLine(nil); got != "" {
		t.Errorf("nil tree = %q", got)
	}
	// Open span with progress: the summary names it with counts and ETA.
	tree := &SpanNode{Name: "shed", DurNs: 1e9, Children: []*SpanNode{
		{Name: "crr.sweep", DurNs: 8e8, Done: 3, Total: 9, EtaNs: 16e8},
	}}
	got := heartbeatLine(tree)
	if !strings.Contains(got, "crr.sweep 3/9 (33%)") || !strings.Contains(got, "eta 2s") {
		t.Errorf("progress heartbeat = %q", got)
	}
	// No progress anywhere: fall back to the deepest open span.
	tree = &SpanNode{Name: "shed", DurNs: 3e9, Children: []*SpanNode{
		{Name: "load", DurNs: 1e9, Ended: true},
		{Name: "betweenness", DurNs: 2e9},
	}}
	got = heartbeatLine(tree)
	if !strings.Contains(got, "in betweenness for 2s") {
		t.Errorf("fallback heartbeat = %q", got)
	}
	// Everything ended: silence.
	tree = &SpanNode{Name: "shed", DurNs: 1e9, Ended: true, Children: []*SpanNode{
		{Name: "load", DurNs: 1e9, Ended: true},
	}}
	if got = heartbeatLine(tree); got != "" {
		t.Errorf("all-ended tree = %q, want empty", got)
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe and returns
// what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = old }()
	fn()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLogJSON pins the -log-json line shape: one JSON object per line with
// ts, level and msg — and that messages with quotes stay valid JSON.
func TestLogJSON(t *testing.T) {
	cli := &CLI{Verbose: true, LogJSON: true}
	s := &Session{cli: cli}
	out := captureStderr(t, func() {
		s.Logf("loaded %q with %d edges", "graph.txt", 42)
		s.Verbosef("fine-grained detail")
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), out)
	}
	var rec struct {
		TS    string `json:"ts"`
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, lines[0])
	}
	if rec.Level != "info" || rec.Msg != `loaded "graph.txt" with 42 edges` {
		t.Errorf("info line = %+v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec.TS); err != nil {
		t.Errorf("ts %q is not RFC3339Nano: %v", rec.TS, err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Level != "debug" || rec.Msg != "fine-grained detail" {
		t.Errorf("debug line = %+v", rec)
	}
}

// TestLogPlainTextByDefault pins that without -log-json the lines stay
// human plain text.
func TestLogPlainTextByDefault(t *testing.T) {
	s := &Session{cli: &CLI{}}
	out := captureStderr(t, func() { s.Logf("plain %d", 7) })
	if strings.TrimSpace(out) != "plain 7" {
		t.Errorf("plain log = %q", out)
	}
}

// TestSessionDebugPlaneLifecycle is the in-process end-to-end: a session
// started with -debug-addr :0 and -sample-interval serves live scrapes
// that include kernel counters, then Close tears the plane down and
// embeds the sampled timeline in the manifest.
func TestSessionDebugPlaneLifecycle(t *testing.T) {
	dir := t.TempDir()
	manifestPath := filepath.Join(dir, "run.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cli := BindFlags(fs)
	if err := fs.Parse([]string{
		"-debug-addr", "127.0.0.1:0",
		"-sample-interval", "2ms",
		"-metrics", manifestPath,
	}); err != nil {
		t.Fatal(err)
	}
	sess, err := cli.Start("livetest")
	if err != nil {
		t.Fatal(err)
	}
	addr := sess.DebugServerAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("DebugServerAddr = %q, want a bound port", addr)
	}
	sess.Recorder().Counter("crr.rewire.attempts").Add(77)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "edgeshed_crr_rewire_attempts_total 77") {
		t.Fatalf("live /metrics missing counter:\n%s", body)
	}

	time.Sleep(5 * time.Millisecond) // let the sampler tick
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("debug plane still serving after Close")
	}
	m, err := ReadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Timeline) < 2 {
		t.Fatalf("manifest timeline has %d samples, want >= 2", len(m.Timeline))
	}
	if m.Counters["crr.rewire.attempts"] != 77 {
		t.Errorf("manifest counters = %v", m.Counters)
	}
	if m.Options["debug-addr"] != "127.0.0.1:0" {
		t.Errorf("manifest options missing debug-addr: %v", m.Options)
	}
}

// TestDebugAddrWithoutMetricsEnablesRecorder pins the flag semantics:
// -debug-addr alone creates a Recorder (live scrapes need data) but writes
// no manifest.
func TestDebugAddrWithoutMetricsEnablesRecorder(t *testing.T) {
	cli := &CLI{DebugAddr: "127.0.0.1:0"}
	sess, err := cli.Start("livetest")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Recorder() == nil {
		t.Error("-debug-addr did not enable the recorder")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBusyDebugAddrFailsStart pins that an unbindable -debug-addr is a
// startup error, not a silent no-plane run.
func TestBusyDebugAddrFailsStart(t *testing.T) {
	first := &CLI{DebugAddr: "127.0.0.1:0"}
	sess, err := first.Start("livetest")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	second := &CLI{DebugAddr: sess.DebugServerAddr()}
	if s2, err := second.Start("livetest"); err == nil {
		s2.Close()
		t.Fatal("second bind of one address succeeded")
	}
}

// TestFailedStartKeepsSlotObserver pins that a Start failing to bind
// -debug-addr leaves par with the slot observer it found, not the flight
// recorder of a session that never started.
func TestFailedStartKeepsSlotObserver(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	found := New("found").Flight()
	prev := par.SetSlotObserver(found)
	defer par.SetSlotObserver(prev)
	cli := &CLI{DebugAddr: l.Addr().String(), MetricsPath: filepath.Join(t.TempDir(), "run.json")}
	if sess, err := cli.Start("livetest"); err == nil {
		sess.Close()
		t.Fatal("Start bound an address already in use")
	}
	if got := par.SetSlotObserver(found); got != found {
		t.Errorf("after a failed Start par observes %T %p, want the observer it found (%p)", got, got, found)
	}
}

// TestHeartbeatEmitsProgressLines drives the heartbeat at test speed and
// checks it reports a progressing span.
func TestHeartbeatEmitsProgressLines(t *testing.T) {
	cli := &CLI{DebugAddr: "127.0.0.1:0", Verbose: true}
	out := captureStderr(t, func() {
		sess, err := cli.Start("livetest")
		if err != nil {
			t.Fatal(err)
		}
		// Restart the heartbeat at test cadence.
		sess.stopHeartbeat()
		sp := sess.Root().Start("crr.sweep")
		sp.SetTotal(10)
		sp.Done(4)
		sess.startHeartbeat(2 * time.Millisecond)
		time.Sleep(10 * time.Millisecond)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "heartbeat: crr.sweep 4/10 (40%)") {
		t.Errorf("no heartbeat line in stderr:\n%s", out)
	}
}
