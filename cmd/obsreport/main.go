// Command obsreport reads run manifests (-metrics output) in two modes: a
// cross-run trend report over many runs — the registry view of how
// algorithm quality and performance move over time — and a diff of two
// runs, reporting what moved between them.
//
//	obsreport results/
//	obsreport -json trend.json -max-regress 10% results/
//	obsreport diff run_before.json run_after.json
//	obsreport diff -max-regress 25% run_before.json run_after.json
//
// In both modes -max-regress (a percentage like "25%" or a fraction like
// "0.25") turns the report into a regression gate: any gated metric worse
// than its reference by more than the threshold makes obsreport exit 1, so
// CI can fail the build. Without it, obsreport only reports. Exit codes: 0
// no breach, 1 threshold breached, 2 unusable input.
//
// Trend mode (the default). Arguments are files or directories; a directory
// contributes every *.json file directly inside it. JSON files that are not
// run manifests are skipped with a note, so a results directory can hold
// other artifacts. Manifests are grouped by command plus machine identity
// (Go version, GOOS/GOARCH, CPU count — see internal/obs.Env) so numbers
// from different machines never land in one trend line, ordered by start
// time within each group, and rendered as one markdown table per group: one
// row per (quality metric, preservation ratio) series from each manifest's
// quality_timeline, one column per run. Runs whose git_commit carries the
// "-dirty" suffix are flagged: the commit does not identify the measured
// code. Each series' better direction is the metric's declaration in
// internal/obs (metric.go), not a guess. The gate compares, for every
// directional series (lower or higher is better — tasks.Suite scores,
// theorem-bound headroom, Δ trajectories) with at least two runs, the
// latest value against the previous one; "info" series (edge counts,
// bounds) and undeclared metrics trend but never gate.
//
// Diff mode compares a baseline manifest with a current one: counter
// deltas (report-only), histogram p50/p99 shifts and per-span wall-time
// ratios. Spans and the histograms declared in ns gate above a 1 ms noise
// floor, by the same regression rule as trend mode. Manifests carry the
// measuring machine's identity; diff refuses to compare runs from different
// machines, because a hardware delta masquerades as a perf delta.
// -allow-env-mismatch downgrades that refusal to a warning for the rare
// deliberate cross-machine look.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"edgeshed/internal/obs"
)

func main() {
	var opt reportOpts
	flag.StringVar(&opt.maxRegress, "max-regress", "", "gate threshold, e.g. 10% or 0.1: exit 1 when a gated metric regresses beyond it (empty = report only)")
	flag.BoolVar(&opt.allowEnv, "allow-env-mismatch", false, "diff: compare manifests from different machines anyway (warning instead of refusal)")
	flag.StringVar(&opt.jsonPath, "json", "", "trend: also write the report machine-readable to this file")
	cli := obs.BindFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsreport [flags] file-or-dir [file-or-dir...]")
		fmt.Fprintln(os.Stderr, "       obsreport diff [flags] baseline.json current.json")
		flag.PrintDefaults()
	}
	args := os.Args[1:]
	diffMode := len(args) > 0 && args[0] == "diff"
	if diffMode {
		args = args[1:]
	}
	flag.CommandLine.Parse(args)
	opt.args = flag.Args()
	if (diffMode && len(opt.args) != 2) || len(opt.args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	sess, err := cli.Start("obsreport")
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(2)
	}
	var code int
	runErr := obs.Run(sess, func() error {
		var rerr error
		if diffMode {
			code, rerr = diff(os.Stdout, opt.args[0], opt.args[1], opt.maxRegress, opt.allowEnv, sess)
		} else {
			code, rerr = trend(os.Stdout, opt, sess)
		}
		return rerr
	})
	if cerr := sess.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", runErr)
		os.Exit(2)
	}
	os.Exit(code)
}

// reportOpts carries the command's flag values into trend and diff.
type reportOpts struct {
	maxRegress string
	allowEnv   bool
	jsonPath   string
	args       []string
}

// report is the whole trend document: the -json output and the source of
// both the markdown rendering and the gate verdict.
type report struct {
	// Groups holds one manifest trend group per (command, machine) pair.
	Groups []*runGroup `json:"groups,omitempty"`
	// Breaches lists the gate violations found (empty without -max-regress).
	Breaches []string `json:"breaches,omitempty"`
}

// runGroup is the trend of one command on one machine.
type runGroup struct {
	// Command is the manifests' command name (e.g. "shed").
	Command string `json:"command"`
	// Env is the shared machine identity of every run in the group.
	Env *obs.Env `json:"env"`
	// Runs are the group's manifests in start-time order.
	Runs []runInfo `json:"runs"`
	// Series holds one quality trend line per (metric, ratio) pair.
	Series []*series `json:"series,omitempty"`
}

// runInfo identifies one manifest column of a trend table.
type runInfo struct {
	// Path is the manifest file.
	Path string `json:"path"`
	// StartUTC is the run's start timestamp, the column sort key.
	StartUTC string `json:"start_utc"`
	// GitCommit is the code identity the run was measured at; a "-dirty"
	// suffix flags an unidentifiable worktree.
	GitCommit string `json:"git_commit,omitempty"`
}

// series is one trend line: a quality metric at one preservation ratio
// across a group's runs.
type series struct {
	// Metric is the probe name (e.g. "crr.headroom.theorem1").
	Metric string `json:"metric"`
	// Ratio is the preservation ratio; 0 for ratio-less metrics.
	Ratio float64 `json:"ratio,omitempty"`
	// Better is the metric's declared good direction ("lower", "higher",
	// "info"); only directional series gate.
	Better string `json:"better,omitempty"`
	// Values is the final recorded value per run, aligned with the group's
	// Runs; nil where the run did not record the metric.
	Values []*float64 `json:"values"`
}

// trend builds and renders the trend report and returns the process exit
// code (0 ok, 1 gate breach). Errors mean the inputs were unusable (exit 2).
func trend(w io.Writer, opt reportOpts, sess *obs.Session) (int, error) {
	gate, err := parseMaxRegress(opt.maxRegress)
	if err != nil {
		return 0, err
	}
	files, err := collectFiles(opt.args)
	if err != nil {
		return 0, err
	}
	var manifests []*obs.Manifest
	var manifestPaths []string
	for _, path := range files {
		if !hasCommand(path) {
			sess.Verbosef("skipping %s: not a run manifest", path)
			continue
		}
		m, err := obs.ReadManifest(path)
		if err != nil {
			return 0, err
		}
		manifests = append(manifests, m)
		manifestPaths = append(manifestPaths, path)
	}
	if len(manifests) == 0 {
		return 0, fmt.Errorf("no run manifests among %d file(s)", len(files))
	}
	sess.Verbosef("aggregating %d manifest(s)", len(manifests))

	rep := &report{Groups: groupManifests(manifests, manifestPaths)}
	renderMarkdown(w, rep)
	rep.Breaches = gateSeries(rep.Groups, gate)
	if opt.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(opt.jsonPath, append(data, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	return reportBreaches(w, rep.Breaches, gate, "quality series", "directional quality series", opt.maxRegress), nil
}

// reportBreaches prints the gate verdict and returns the exit code: 1 with
// the breach list when anything regressed beyond limit, else 0, with an ok
// line when a gate was set (gate >= 0). breached and checked name what was
// gated in the two verdict lines.
func reportBreaches(w io.Writer, breaches []string, gate float64, breached, checked, limit string) int {
	if len(breaches) > 0 {
		fmt.Fprintf(w, "\nBREACH: %d %s regressed beyond %s:\n", len(breaches), breached, limit)
		for _, b := range breaches {
			fmt.Fprintf(w, "  %s\n", b)
		}
		return 1
	}
	if gate >= 0 {
		fmt.Fprintf(w, "\nok: no %s regressed beyond %s\n", checked, limit)
	}
	return 0
}

// collectFiles expands the positional arguments into a sorted list of
// candidate JSON files: a directory contributes every *.json directly
// inside it, a file contributes itself.
func collectFiles(args []string) ([]string, error) {
	var files []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			files = append(files, a)
			continue
		}
		ents, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
				files = append(files, filepath.Join(a, e.Name()))
			}
		}
	}
	sort.Strings(files)
	return files, nil
}

// hasCommand reports whether path holds a JSON object with a "command"
// key, i.e. is meant as a run manifest. Unreadable or other files are
// skipped, not fatal — directories hold other artifacts too; a file that
// claims to be a manifest but does not parse as one is an error.
func hasCommand(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	_, ok := probe["command"]
	return ok
}

// groupManifests buckets manifests by (command, machine), orders each
// bucket by start time, and builds the per-(metric, ratio) series from the
// final quality_timeline entry each run recorded for that pair.
func groupManifests(ms []*obs.Manifest, paths []string) []*runGroup {
	type entry struct {
		m    *obs.Manifest
		path string
	}
	buckets := map[string][]entry{}
	for i, m := range ms {
		// GitCommit is deliberately not part of the key: commits vary along
		// a trend line, machines must not.
		k := fmt.Sprintf("%s|%s|%s|%s|%d", m.Command, m.GoVersion, m.GOOS, m.GOARCH, m.CPUs)
		buckets[k] = append(buckets[k], entry{m, paths[i]})
	}
	var groups []*runGroup
	for _, k := range sortedKeys(buckets) {
		runs := buckets[k]
		sort.SliceStable(runs, func(i, j int) bool {
			if runs[i].m.StartUTC != runs[j].m.StartUTC {
				return runs[i].m.StartUTC < runs[j].m.StartUTC
			}
			return runs[i].path < runs[j].path
		})
		m := runs[0].m
		g := &runGroup{Command: m.Command,
			Env: &obs.Env{GoVersion: m.GoVersion, GOOS: m.GOOS, GOARCH: m.GOARCH, CPUs: m.CPUs}}
		type seriesKey struct {
			metric string
			ratio  float64
		}
		byKey := map[seriesKey]*series{}
		for _, r := range runs {
			g.Runs = append(g.Runs, runInfo{Path: r.path, StartUTC: r.m.StartUTC, GitCommit: r.m.GitCommit})
		}
		for i, r := range runs {
			// The timeline is offset-ordered; the last point per (metric,
			// ratio) is the run's final word on that series.
			for _, q := range r.m.Quality {
				sk := seriesKey{q.Metric, q.Ratio}
				s, ok := byKey[sk]
				if !ok {
					s = &series{Metric: q.Metric, Ratio: q.Ratio, Better: obs.Describe(q.Metric).Better,
						Values: make([]*float64, len(runs))}
					byKey[sk] = s
					g.Series = append(g.Series, s)
				}
				v := q.Value
				s.Values[i] = &v
			}
		}
		sort.SliceStable(g.Series, func(i, j int) bool {
			if g.Series[i].Metric != g.Series[j].Metric {
				return g.Series[i].Metric < g.Series[j].Metric
			}
			return g.Series[i].Ratio < g.Series[j].Ratio
		})
		groups = append(groups, g)
	}
	return groups
}

// renderMarkdown writes the human half of the report: one section per
// group, a run legend, dirty-worktree warnings, and the trend table.
func renderMarkdown(w io.Writer, rep *report) {
	fmt.Fprintln(w, "# edgeshed cross-run trend report")
	for _, g := range rep.Groups {
		fmt.Fprintf(w, "\n## %s — %s %s/%s, %d CPUs\n\n", g.Command,
			g.Env.GoVersion, g.Env.GOOS, g.Env.GOARCH, g.Env.CPUs)
		renderLegend(w, g.Runs)
		renderSeries(w, g.Series, len(g.Runs))
	}
}

// renderLegend prints the column key: run index, file, start time, commit,
// plus a warning line for every dirty-worktree measurement.
func renderLegend(w io.Writer, runs []runInfo) {
	for i, r := range runs {
		line := fmt.Sprintf("- run %d: %s", i+1, filepath.Base(r.Path))
		if r.StartUTC != "" {
			line += " (" + r.StartUTC + ")"
		}
		if r.GitCommit != "" {
			line += " @" + r.GitCommit
		}
		fmt.Fprintln(w, line)
		if obs.DirtyCommit(r.GitCommit) {
			fmt.Fprintf(w, "  warning: %s was measured on a dirty worktree — its commit does not identify the code\n", filepath.Base(r.Path))
		}
	}
	fmt.Fprintln(w)
}

// renderSeries prints the trend table: one row per series, one value
// column per run, "—" where a run did not record the metric.
func renderSeries(w io.Writer, ss []*series, nruns int) {
	if len(ss) == 0 {
		fmt.Fprintln(w, "(no quality series recorded)")
		return
	}
	fmt.Fprint(w, "| metric | p | better |")
	for i := 0; i < nruns; i++ {
		fmt.Fprintf(w, " run %d |", i+1)
	}
	fmt.Fprint(w, "\n|---|---|---|")
	for i := 0; i < nruns; i++ {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, s := range ss {
		ratio := "—"
		if s.Ratio != 0 {
			ratio = strconv.FormatFloat(s.Ratio, 'g', -1, 64)
		}
		fmt.Fprintf(w, "| %s | %s | %s |", s.Metric, ratio, s.Better)
		for _, v := range s.Values {
			if v == nil {
				fmt.Fprint(w, " — |")
			} else {
				fmt.Fprintf(w, " %.6g |", *v)
			}
		}
		fmt.Fprintln(w)
	}
}

// gateSeries applies the regression gate to every directional quality
// series: the latest recorded value against the previous one, by the
// shared regression rule. "info" series and series with fewer than two
// recorded runs never gate.
func gateSeries(groups []*runGroup, gate float64) []string {
	var breaches []string
	for _, g := range groups {
		for _, s := range g.Series {
			var present []float64
			for _, v := range s.Values {
				if v != nil {
					present = append(present, *v)
				}
			}
			if len(present) < 2 {
				continue
			}
			prev, latest := present[len(present)-2], present[len(present)-1]
			if worse, breach := regression(prev, latest, s.Better, gate); breach {
				label := g.Command + " " + s.Metric
				if s.Ratio != 0 {
					label += fmt.Sprintf("@p=%g", s.Ratio)
				}
				breaches = append(breaches, fmt.Sprintf("%s: %g -> %g (%+.1f%% worse, limit %.1f%%, better=%s)",
					label, prev, latest, worse*100, gate*100, s.Better))
			}
		}
	}
	return breaches
}

// regression is the one gate rule of both modes: how far cur moved from
// base in the bad direction of a metric declared lower- or higher-is-
// better, as a fraction of |base| (a zero base makes any bad move
// enormous), and whether that exceeds gate. Info metrics and a negative
// gate (no -max-regress) never breach.
func regression(base, cur float64, better string, gate float64) (worse float64, breach bool) {
	worse = (cur - base) / math.Max(math.Abs(base), 1e-12)
	switch better {
	case obs.Lower:
	case obs.Higher:
		worse = -worse
	default:
		return worse, false
	}
	return worse, gate >= 0 && worse > gate
}

// parseMaxRegress turns "25%" or "0.25" into the fraction 0.25; an empty
// string disables gating (returned as -1).
func parseMaxRegress(s string) (float64, error) {
	if s == "" {
		return -1, nil
	}
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -max-regress %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("bad -max-regress %q: negative threshold", s)
	}
	return v, nil
}

// sortedKeys returns m's keys in sorted order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unionKeys returns the keys of a and b together, in sorted order.
func unionKeys[V any](a, b map[string]V) []string {
	keys := sortedKeys(a)
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
