// Command bench is edgeshed's pipeline benchmark. It generates Table II
// stand-ins locally, packs them to ESC1, and times the real shed and
// evaluate pipelines end to end with observability off, then runs one
// traced rep for the per-layer breakdown. Every rep's output is checked.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//
// Each workload runs in child processes of this command, one at a time: a
// setup child packs the input, an untraced child times the reps, and with
// --trace 1 a traced child records the span tree. The last line of standard
// output is one JSON object with the run's metrics; the lines before it
// print every metric with its unit and the timings' quartiles. Without
// --workload every workload runs in turn. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// config is the command line, shared by the parent and its children.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	child    string // "", "setup", "run" or "trace"
}

// The setup child packs the input at least setupReps times and until
// setupMin has passed, so a pack of a few milliseconds is repeated enough
// for its median to settle; setup_s is the median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// deadline bounds one workload's children, so a hung child cannot keep the
// parent past its time limit.
const deadline = 170 * time.Second

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs and the algorithms")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed reps of one run last")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced rep, 0 the end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for generated inputs, outputs and temp files")
	flag.StringVar(&cfg.child, "child", "", "internal: run as the named child process")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", trace))
	}
	cfg.trace = trace == 1
	if cfg.child != "" {
		if err := runChild(cfg); err != nil {
			fail(err)
		}
		return
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	env, _ := json.Marshal(obs.CaptureEnv())
	fmt.Printf("# env %s workers=%d\n", env, runtime.GOMAXPROCS(0))
	for _, name := range names {
		w, err := workloadByName(name)
		if err != nil {
			fail(err)
		}
		if err := drive(os.Stdout, cfg, w); err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is the JSON object the last line of output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// drive runs one workload's children and prints its metrics.
func drive(out io.Writer, cfg config, w workload) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	p := pathsFor(cfg.dir, w, cfg.seed)
	defer os.Remove(p.packed)
	defer os.Remove(p.out)
	pn, err := loadPins()
	if err != nil {
		return err
	}

	var setup setupReport
	if _, err := spawn(ctx, cfg, w, "setup", &setup); err != nil {
		return err
	}
	var run runReport
	rusage, err := spawn(ctx, cfg, w, "run", &run)
	if err != nil {
		return err
	}
	res := result{Attempted: run.Attempted, Failed: run.Failed}
	problems := run.Errors
	if run.Outcome == nil {
		problems = append(problems, "no rep succeeded")
	}
	if _, pinned := pn.Workloads[w.name]; cfg.seed == pn.Seed && !pinned {
		problems = append(problems, "no pinned outcome for the pinned seed")
	}

	fmt.Fprintf(out, "# workload %s seed=%d |V|=%d |E|=%d reps=%d\n", w.name, cfg.seed, setup.Nodes, setup.Edges, len(run.Reps))
	if run.Outcome != nil {
		o, _ := json.Marshal(run.Outcome)
		fmt.Fprintf(out, "# outcome %s\n", o)
	}
	e2e := endToEndMetrics(setup, run, rusage.Maxrss)
	printTimed(out, "wall_s", walls(run.Reps))
	printTimed(out, "setup_s", setup.PackS)
	printMetrics(out, endToEnd, e2e)
	metrics := e2e
	defs := endToEnd
	if cfg.trace {
		var tr traceReport
		if _, err := spawn(ctx, cfg, w, "trace", &tr); err != nil {
			return err
		}
		res.Attempted += tr.Attempted
		res.Failed += tr.Failed
		problems = append(problems, tr.Errors...)
		if tr.Outcome != nil && run.Outcome != nil {
			if err := tr.Outcome.matches(*run.Outcome); err != nil {
				res.Failed++
				problems = append(problems, "traced rep differs from untraced: "+err.Error())
			}
		}
		metrics, defs = layerMetrics(run, tr), perLayer
		printMetrics(out, perLayer, metrics)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "# FAIL %s\n", p)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func printTimed(out io.Writer, name string, xs []float64) {
	q1, q3 := quartiles(xs)
	fmt.Fprintf(out, "# %-28s median=%.6g q1=%.6g q3=%.6g n=%d s\n", name, median(xs), q1, q3, len(xs))
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "# %-28s %.6g %s (%s is better)\n", d.name, m[d.name], d.unit, d.better)
	}
}

// spawn runs this binary as the named child for w and decodes the JSON it
// prints into report. The child's stderr passes through.
func spawn(ctx context.Context, cfg config, w workload, child string, report any) (*syscall.Rusage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-child", child, "-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-dir", cfg.dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", child, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), report); err != nil {
		return nil, fmt.Errorf("%s child output: %w", child, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for child process")
	}
	return ru, nil
}

// runChild is the body of a child process: it prints one JSON report.
func runChild(cfg config) error {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	p := pathsFor(cfg.dir, w, cfg.seed)
	for _, d := range []string{filepath.Dir(p.packed), p.tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var report any
	switch cfg.child {
	case "setup":
		report, err = childSetup(w, cfg.seed, p)
	case "run", "trace":
		report, err = childMeasure(cfg, w, p)
	default:
		err = fmt.Errorf("unknown child %q", cfg.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(report)
}

// childSetup generates the input if it is not cached, then packs it the
// way gpack does, repeatedly.
func childSetup(w workload, seed int64, p paths) (setupReport, error) {
	var r setupReport
	if err := ensureInput(w, seed, p); err != nil {
		return r, err
	}
	start := time.Now()
	for i := 0; i < setupReps || time.Since(start) < setupMin; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := graph.PackEdgeListFile(p.text, p.packed, graph.PackOptions{TmpDir: p.tmp})
		if err != nil {
			return r, err
		}
		r.PackS = append(r.PackS, time.Since(t0).Seconds())
		r.Nodes, r.Edges = st.Nodes, st.Edges
	}
	return r, nil
}

// childMeasure runs the untraced reps ("run") or one warm-up and one traced
// rep ("trace").
func childMeasure(cfg config, w workload, p paths) (any, error) {
	pn, err := loadPins()
	if err != nil {
		return nil, err
	}
	pl, err := newPipeline(w, cfg.seed, p)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	if want, ok := pn.Workloads[w.name]; ok && cfg.seed == pn.Seed {
		t.pin = &want
	}
	if cfg.child == "run" {
		reps := t.measure(pl, cfg.seconds)
		return runReport{Reps: reps, Outcome: t.ref, Attempted: t.attempted, Failed: t.failed, Errors: t.errs}, nil
	}
	t.do(pl, nil) // warm-up, so the traced rep is not also the cold one
	rec := obs.New("bench")
	st, _ := t.do(pl, rec.Root())
	tr := traceReport{
		Rep:        st,
		Counters:   rec.CounterValues(),
		Histograms: rec.HistogramValues(),
		Outcome:    t.ref,
	}
	if kids := rec.SpanTree().Children; len(kids) > 0 {
		tr.Spans = kids[0]
	}
	if w.speedup {
		tr.SpeedupW1, err = speedupW1(p.packed, cfg.seed)
		t.attempted++
		if err != nil {
			t.failed++
			t.errs = append(t.errs, err.Error())
		}
	}
	tr.Attempted, tr.Failed, tr.Errors = t.attempted, t.failed, t.errs
	return tr, nil
}
