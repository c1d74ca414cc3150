package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"edgeshed/internal/par"
)

// CLI holds the shared observability flags every cmd binary registers
// through BindFlags: capture hooks (-profile, -profile-out, -trace,
// -metrics), the live debug plane (-debug-addr), the background runtime
// sampler (-sample-interval) and the stderr progress logger's verbosity and
// format (-quiet, -v, -log-json). After flag parsing, Start turns the
// requested captures on and returns the run's Session.
type CLI struct {
	// Profile selects a runtime profile to capture: "cpu", "mem" or
	// "block"; empty captures none.
	Profile string
	// ProfileOut is the profile output path; empty means "<mode>.pprof".
	ProfileOut string
	// TracePath, when non-empty, captures a runtime execution trace there.
	TracePath string
	// MetricsPath, when non-empty, writes the JSON run manifest there and
	// enables the Recorder the kernels report spans and counters into.
	MetricsPath string
	// TraceEventsPath, when non-empty, writes a Chrome/Perfetto trace-event
	// JSON file there at Close: the span tree plus the flight recorder's
	// events as one track per worker slot, with counter tracks. Enables the
	// Recorder like -metrics.
	TraceEventsPath string
	// DebugAddr, when non-empty, serves the live debug plane there for the
	// run's duration: /metrics (Prometheus text exposition), /progress
	// (live span tree with ETAs), /healthz and /debug/pprof/*. Setting it
	// enables the Recorder even without -metrics, so live scrapes have
	// counters and spans to read.
	DebugAddr string
	// SampleInterval, when positive, runs the background runtime sampler:
	// a timestamped timeline of heap, GC and goroutine observations
	// recorded into the manifest's runtime_timeline.
	SampleInterval time.Duration
	// Quiet suppresses progress output on stderr.
	Quiet bool
	// Verbose enables extra progress output on stderr, including the
	// periodic span-progress heartbeat when a Recorder is live.
	Verbose bool
	// LogJSON emits every log line as a JSON object {ts, level, msg} for
	// machine consumption instead of plain text.
	LogJSON bool

	fs *flag.FlagSet
}

// BindFlags registers the shared observability flags on fs and returns the
// CLI that will receive their values. Call before fs is parsed.
func BindFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{fs: fs}
	fs.StringVar(&c.Profile, "profile", "", "capture a runtime profile: cpu, mem or block")
	fs.StringVar(&c.ProfileOut, "profile-out", "", "profile output path (default <mode>.pprof)")
	fs.StringVar(&c.TracePath, "trace", "", "capture a runtime execution trace to this file")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write a JSON run manifest to this file")
	fs.StringVar(&c.TraceEventsPath, "trace-events", "", "write a Chrome/Perfetto trace-event JSON timeline to this file (one track per worker)")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve the live debug plane (/metrics, /progress, /healthz, /debug/pprof) on this address for the run's duration")
	fs.DurationVar(&c.SampleInterval, "sample-interval", 0, "sample heap/GC/goroutine stats on this interval into the manifest's runtime timeline (0 = off)")
	fs.BoolVar(&c.Quiet, "quiet", false, "suppress progress output on stderr")
	fs.BoolVar(&c.Verbose, "v", false, "verbose progress output on stderr")
	fs.BoolVar(&c.LogJSON, "log-json", false, "emit log lines as JSON objects (ts, level, msg)")
	return c
}

// profilePath resolves the profile output path.
func (c *CLI) profilePath() string {
	if c.ProfileOut != "" {
		return c.ProfileOut
	}
	return c.Profile + ".pprof"
}

// Start begins the run's observability session for the named command:
// starts the CPU profile and execution trace if requested, arms block
// profiling, snapshots memory, creates the Recorder whose root span times
// the whole run when -metrics or -debug-addr asked for one, binds the live
// debug plane, and launches the background runtime sampler and the -v
// progress heartbeat. Call exactly once, after flag parsing; pair with
// Session.Close.
func (c *CLI) Start(command string) (*Session, error) {
	s := &Session{cli: c, command: command, startWall: time.Now()}
	runtime.ReadMemStats(&s.memBefore)
	switch c.Profile {
	case "":
	case "cpu":
		f, err := os.Create(c.profilePath())
		if err != nil {
			return nil, fmt.Errorf("creating cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting cpu profile: %w", err)
		}
		s.cpuFile = f
	case "mem":
		// Heap profiling is always on; the profile is written at Close.
	case "block":
		runtime.SetBlockProfileRate(1)
	default:
		return nil, fmt.Errorf("unknown -profile mode %q (want cpu, mem or block)", c.Profile)
	}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			s.stopCaptures()
			return nil, fmt.Errorf("creating trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			s.stopCaptures()
			return nil, fmt.Errorf("starting trace: %w", err)
		}
		s.traceFile = f
	}
	if c.MetricsPath != "" || c.DebugAddr != "" || c.TraceEventsPath != "" {
		s.rec = New(command)
		// par reports worker-slot identity into the flight recorder for the
		// session's duration; Close restores whatever was installed before.
		s.prevSlotObs = par.SetSlotObserver(s.rec.Flight())
		s.slotObsSet = true
	}
	if c.DebugAddr != "" {
		d, err := startDebugServer(c.DebugAddr, s.rec)
		if err != nil {
			s.stopCaptures()
			return nil, err
		}
		s.debug = d
		s.Verbosef("debug plane listening on %s", d.Addr())
	}
	if c.SampleInterval > 0 {
		s.smp = startSampler(c.SampleInterval, s.startWall, s.rec.Flight().Marker(EvSamplerTick, "runtime"))
	}
	if c.Verbose && !c.Quiet && s.rec != nil {
		s.startHeartbeat(heartbeatInterval)
	}
	return s, nil
}

// Session is one observed run of a cmd binary: the live Recorder (nil
// unless -metrics asked for one — the zero-overhead-when-off switch), the
// in-flight captures, and the manifest fields the command fills in as it
// learns them (graph size, seed, workers). All methods are nil-safe so
// helper functions can be exercised without a session.
type Session struct {
	cli       *CLI
	command   string
	rec       *Recorder
	startWall time.Time
	memBefore runtime.MemStats

	cpuFile   *os.File
	traceFile *os.File

	debug         *debugServer
	smp           *sampler
	heartbeatStop chan struct{}
	heartbeatDone chan struct{}
	prevSlotObs   par.SlotObserver
	slotObsSet    bool

	graph   *GraphInfo
	seed    int64
	workers int
}

// DebugServerAddr returns the live debug plane's bound address ("" when
// -debug-addr is off). With "-debug-addr :0" this is how callers and tests
// learn the kernel-assigned port.
func (s *Session) DebugServerAddr() string {
	if s == nil {
		return ""
	}
	return s.debug.Addr()
}

// Recorder returns the session's recorder — nil unless -metrics or
// -debug-addr enabled it, which is exactly the nil kernels should receive
// so disabled runs pay nothing.
func (s *Session) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Root returns the session's root span (nil when recording is off), the
// parent to thread into kernels.
func (s *Session) Root() *Span {
	if s == nil {
		return nil
	}
	return s.rec.Root()
}

// SetGraph records the input graph's size for the manifest.
func (s *Session) SetGraph(nodes, edges int) {
	if s == nil {
		return
	}
	s.graph = &GraphInfo{Nodes: nodes, Edges: edges}
}

// SetSeed records the run's random seed for the manifest.
func (s *Session) SetSeed(seed int64) {
	if s == nil {
		return
	}
	s.seed = seed
}

// SetWorkers records the run's requested worker count for the manifest.
func (s *Session) SetWorkers(workers int) {
	if s == nil {
		return
	}
	s.workers = workers
}

// Logf prints one progress line to stderr unless -quiet. Progress always
// goes to stderr, never stdout, so machine output and human progress never
// interleave. A nil Session prints (a session-less helper still wants its
// progress seen).
func (s *Session) Logf(format string, args ...any) {
	if s != nil && s.cli != nil && s.cli.Quiet {
		return
	}
	s.emitLog("info", format, args...)
}

// Verbosef prints one progress line to stderr only when -v was given.
func (s *Session) Verbosef(format string, args ...any) {
	if s == nil || s.cli == nil || !s.cli.Verbose || s.cli.Quiet {
		return
	}
	s.emitLog("debug", format, args...)
}

// emitLog writes one log line: plain text by default, or a JSON object
// {ts, level, msg} under -log-json. JSON lines are built with the encoder
// (not string concatenation), so messages with quotes or newlines stay
// valid JSON.
func (s *Session) emitLog(level, format string, args ...any) {
	if s == nil || s.cli == nil || !s.cli.LogJSON {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		return
	}
	line, err := json.Marshal(struct {
		TS    string `json:"ts"`
		Level string `json:"level"`
		Msg   string `json:"msg"`
	}{
		TS:    time.Now().UTC().Format(time.RFC3339Nano),
		Level: level,
		Msg:   fmt.Sprintf(format, args...),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		return
	}
	fmt.Fprintf(os.Stderr, "%s\n", line)
}

// heartbeatInterval paces the -v progress heartbeat; a variable so tests
// can tighten it.
var heartbeatInterval = 10 * time.Second

// startHeartbeat launches the periodic span-progress logger: every interval
// it snapshots the live span tree and prints one line summarizing every
// open span with unit progress (done/total, percent, ETA). Stopped by
// Close before the manifest is written.
func (s *Session) startHeartbeat(interval time.Duration) {
	s.heartbeatStop = make(chan struct{})
	s.heartbeatDone = make(chan struct{})
	go func() {
		defer close(s.heartbeatDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.heartbeatStop:
				return
			case <-t.C:
				if line := heartbeatLine(s.rec.SpanTree()); line != "" {
					s.Verbosef("heartbeat: %s", line)
				}
			}
		}
	}()
}

// stopHeartbeat halts the heartbeat goroutine and waits for it, so no log
// line can race the session teardown.
func (s *Session) stopHeartbeat() {
	if s.heartbeatStop == nil {
		return
	}
	close(s.heartbeatStop)
	<-s.heartbeatDone
	s.heartbeatStop = nil
}

// heartbeatLine renders one progress summary from a span-tree snapshot:
// every open span with unit progress as "name done/total (pp%) eta d",
// joined with "; ". With no progress-carrying span open it falls back to
// the deepest open span's name and elapsed time, so heartbeats never go
// silent mid-run; an all-ended tree yields "".
func heartbeatLine(t *SpanNode) string {
	if t == nil {
		return ""
	}
	var parts []string
	var walk func(n *SpanNode)
	var deepest *SpanNode
	var walkOpen func(n *SpanNode)
	walk = func(n *SpanNode) {
		if !n.Ended && n.Total > 0 {
			p := fmt.Sprintf("%s %d/%d (%.0f%%)", n.Name, n.Done, n.Total, 100*float64(n.Done)/float64(n.Total))
			if n.EtaNs > 0 {
				p += fmt.Sprintf(" eta %s", time.Duration(n.EtaNs).Round(time.Second))
			}
			parts = append(parts, p)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walkOpen = func(n *SpanNode) {
		if n.Ended {
			return
		}
		deepest = n
		for _, c := range n.Children {
			walkOpen(c)
		}
	}
	walk(t)
	if len(parts) > 0 {
		return strings.Join(parts, "; ")
	}
	walkOpen(t)
	if deepest == nil {
		return ""
	}
	return fmt.Sprintf("in %s for %s", deepest.Name, time.Duration(deepest.DurNs).Round(time.Second))
}

// stopCaptures halts the CPU profile and trace if running; safe to call
// more than once.
func (s *Session) stopCaptures() {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		s.cpuFile.Close()
		s.cpuFile = nil
	}
	if s.traceFile != nil {
		trace.Stop()
		s.traceFile.Close()
		s.traceFile = nil
	}
}

// buildManifest snapshots the session's observed state into a Manifest.
// Shared by the clean Close path and Run's panic dump, so both produce the
// same document shape.
func (s *Session) buildManifest(timeline []RuntimeSample) *Manifest {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return &Manifest{
		Command:        s.command,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		CPUs:           runtime.NumCPU(),
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		StartUTC:       s.startWall.UTC().Format(time.RFC3339),
		WallNs:         time.Since(s.startWall).Nanoseconds(),
		Seed:           s.seed,
		Workers:        s.workers,
		Graph:          s.graph,
		Options:        flagValues(s.cliFlags()),
		Spans:          s.rec.SpanTree(),
		Counters:       s.rec.CounterValues(),
		Histograms:     s.rec.HistogramValues(),
		FlightEvents:   s.rec.Flight().Events(),
		Mem:            memDelta(&s.memBefore, &after),
		RuntimeMetrics: captureRuntimeMetrics(),
		Timeline:       timeline,
		Quality:        s.rec.QualityPoints(),
		GitCommit:      gitCommit(),
	}
}

// cliFlags returns the session's flag set, nil without a CLI.
func (s *Session) cliFlags() *flag.FlagSet {
	if s.cli == nil {
		return nil
	}
	return s.cli.fs
}

// restoreSlotObserver hands par's slot-observer seam back to whatever was
// installed before Start; idempotent.
func (s *Session) restoreSlotObserver() {
	if s.slotObsSet {
		par.SetSlotObserver(s.prevSlotObs)
		s.slotObsSet = false
	}
}

// Close ends the session: stops the heartbeat, the runtime sampler and the
// debug plane, then the CPU profile and trace, writes the heap or block
// profile if one was requested, and — when -metrics or -trace-events asked
// for output files — ends the root span and writes the manifest (verifying
// it parses back) and the Chrome trace-event timeline. Call once, after the
// command's work finished; its error is the command's to report. Nil-safe.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.stopHeartbeat()
	timeline := s.smp.Stop()
	s.smp = nil
	s.debug.stop()
	s.debug = nil
	s.restoreSlotObserver()
	s.stopCaptures()
	var firstErr error
	switch {
	case s.cli == nil:
	case s.cli.Profile == "mem":
		if err := writeProfile("allocs", s.cli.profilePath()); err != nil {
			firstErr = err
		}
	case s.cli.Profile == "block":
		runtime.SetBlockProfileRate(0)
		if err := writeProfile("block", s.cli.profilePath()); err != nil {
			firstErr = err
		}
	}
	if s.rec != nil && s.cli != nil && (s.cli.MetricsPath != "" || s.cli.TraceEventsPath != "") {
		s.rec.Root().End()
		m := s.buildManifest(timeline)
		if s.cli.MetricsPath != "" {
			if err := m.WriteFile(s.cli.MetricsPath); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s.cli.TraceEventsPath != "" {
			if err := writeTraceEventsFile(s.cli.TraceEventsPath, m); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Run executes the session's workload with a panic recovery hook: if fn
// panics while a Recorder is live, the session dumps a panic manifest —
// the ordinary manifest plus the panic value, the panicking stack, and the
// flight recorder's tail, the events leading up to the crash — to the
// -metrics path (or "<command>.panic.json" without one) before re-raising
// the panic. A run that returns normally passes its error through
// untouched; pair with Session.Close as usual. Nil-safe: without a session
// or recorder, Run is just fn().
func Run(s *Session, fn func() error) error {
	if s == nil || s.rec == nil {
		return fn()
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := make([]byte, 64<<10)
		stack = stack[:runtime.Stack(stack, false)]
		s.rec.Flight().Marker(EvPanic, fmt.Sprint(r)).Emit(-1, 0)
		m := s.buildManifest(nil)
		m.Panic = fmt.Sprint(r)
		m.PanicStack = string(stack)
		path := s.command + ".panic.json"
		if s.cli != nil && s.cli.MetricsPath != "" {
			path = s.cli.MetricsPath
		}
		if err := m.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "obs: writing panic manifest: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "obs: panic manifest written to %s\n", path)
		}
		panic(r)
	}()
	return fn()
}

// writeProfile writes the named pprof profile to path.
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("obs: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s profile: %w", name, err)
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		return fmt.Errorf("writing %s profile: %w", name, err)
	}
	return nil
}

// flagValues snapshots every flag's final value, so the manifest records
// the run's full option set (defaults included).
func flagValues(fs *flag.FlagSet) map[string]string {
	if fs == nil {
		return nil
	}
	out := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		out[f.Name] = f.Value.String()
	})
	if len(out) == 0 {
		return nil
	}
	return out
}
