package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// newTestCLI builds a parsed CLI over a fresh FlagSet with the given
// arguments.
func newTestCLI(t *testing.T, args ...string) *CLI {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Int("workers", 0, "test flag riding along")
	c := BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSessionDisabledByDefault pins the zero-overhead-when-off switch: with
// no capture flags, the session's Recorder and Root are nil, exactly what
// kernels need to take their free path.
func TestSessionDisabledByDefault(t *testing.T) {
	c := newTestCLI(t)
	s, err := c.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder() != nil || s.Root() != nil {
		t.Error("session without -metrics has a live recorder")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWritesManifest drives a full metrics session — spans,
// counters, graph/seed/workers annotations — and validates the written
// manifest through ReadManifest.
func TestSessionWritesManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	c := newTestCLI(t, "-metrics", path, "-workers", "3")
	s, err := c.Start("testcmd")
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Root().Start("load")
	sp.End()
	s.Root().Counter("events").Add(7)
	s.SetGraph(100, 250)
	s.SetSeed(42)
	s.SetWorkers(3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Command != "testcmd" {
		t.Errorf("command = %q", m.Command)
	}
	if m.GoVersion == "" || m.CPUs <= 0 || m.GoMaxProcs <= 0 || m.StartUTC == "" {
		t.Errorf("host fields incomplete: %+v", m)
	}
	if m.Graph == nil || m.Graph.Nodes != 100 || m.Graph.Edges != 250 {
		t.Errorf("graph = %+v", m.Graph)
	}
	if m.Seed != 42 || m.Workers != 3 {
		t.Errorf("seed/workers = %d/%d", m.Seed, m.Workers)
	}
	if m.Spans == nil || m.Spans.Name != "testcmd" || len(m.Spans.Children) != 1 || m.Spans.Children[0].Name != "load" {
		t.Errorf("span tree = %+v", m.Spans)
	}
	if m.Counters["events"] != 7 {
		t.Errorf("counters = %v", m.Counters)
	}
	if m.Options["workers"] != "3" || m.Options["metrics"] != path {
		t.Errorf("options = %v", m.Options)
	}
	if m.Mem == nil || m.Mem.PeakHeapSysBytes == 0 {
		t.Errorf("mem snapshot = %+v", m.Mem)
	}
	if m.WallNs <= 0 {
		t.Errorf("wall = %d", m.WallNs)
	}
	if len(m.RuntimeMetrics) == 0 {
		t.Errorf("no runtime metrics captured")
	}
}

// TestSessionCPUProfileAndTrace checks the capture hooks produce non-empty
// files.
func TestSessionCPUProfileAndTrace(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	tr := filepath.Join(dir, "trace.out")
	c := newTestCLI(t, "-profile", "cpu", "-profile-out", cpu, "-trace", tr)
	s, err := c.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestSessionMemAndBlockProfiles checks the profiles written at Close.
func TestSessionMemAndBlockProfiles(t *testing.T) {
	for _, mode := range []string{"mem", "block"} {
		path := filepath.Join(t.TempDir(), mode+".pprof")
		c := newTestCLI(t, "-profile", mode, "-profile-out", path)
		s, err := c.Start("test")
		if err != nil {
			t.Fatal(err)
		}
		_ = make([]byte, 1<<20)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s profile is empty", mode)
		}
	}
}

// TestStartRejectsUnknownProfile pins the -profile validation.
func TestStartRejectsUnknownProfile(t *testing.T) {
	c := newTestCLI(t, "-profile", "goroutine")
	if _, err := c.Start("test"); err == nil {
		t.Fatal("unknown profile mode accepted")
	}
}

// TestDefaultProfilePath pins the "<mode>.pprof" default.
func TestDefaultProfilePath(t *testing.T) {
	c := newTestCLI(t, "-profile", "cpu")
	if got := c.profilePath(); got != "cpu.pprof" {
		t.Fatalf("profilePath = %q", got)
	}
}

// TestReadManifestRejectsBadFiles covers the consumer-side validation the
// CI smoke check relies on.
func TestReadManifestRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(empty); err == nil {
		t.Error("empty manifest accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bad); err == nil {
		t.Error("malformed manifest accepted")
	}
	noCmd := filepath.Join(dir, "nocmd.json")
	if err := os.WriteFile(noCmd, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(noCmd); err == nil {
		t.Error("command-less manifest accepted")
	}
	if _, err := ReadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("absent manifest accepted")
	}
}

// TestNilSessionMethods pins Session's nil-safety for helpers exercised
// without a session.
func TestNilSessionMethods(t *testing.T) {
	var s *Session
	if s.Recorder() != nil || s.Root() != nil {
		t.Error("nil session exposes a recorder")
	}
	s.SetGraph(1, 2)
	s.SetSeed(3)
	s.SetWorkers(4)
	s.Verbosef("dropped %d", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
