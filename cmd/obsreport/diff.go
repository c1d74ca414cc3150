package main

import (
	"fmt"
	"io"
	"strings"

	"edgeshed/internal/obs"
)

// gateFloorNs is the baseline span duration below which wall-time ratios
// are reported but never gated: a 0.3ms span doubling is scheduler noise,
// not a regression.
const gateFloorNs = 1_000_000

// histogramGateFloors is the unit registry for histogram gating: a family
// whose name ends in a registered suffix gates when its baseline quantile
// clears the suffix's noise floor, expressed in the family's own unit.
// Durations (_ns) reuse the 1ms span floor; micro-scaled quality magnitudes
// (_micros, e.g. crr.delta_abs_micros, bm2.gain_micros) floor at 1e3 micros
// = one thousandth of a unit, below which a ratio is rounding noise, not a
// quality regression. Unregistered suffixes (occupancies, widths) report
// without ever gating — their shifts are semantic, not regressions.
var histogramGateFloors = []struct {
	suffix string
	floor  float64
}{
	{"_ns", gateFloorNs},
	{"_micros", 1e3},
}

// histogramGateFloor returns the gating noise floor for a histogram family
// and whether the family's unit is registered for gating at all.
func histogramGateFloor(name string) (floor float64, gated bool) {
	for _, f := range histogramGateFloors {
		if strings.HasSuffix(name, f.suffix) {
			return f.floor, true
		}
	}
	return 0, false
}

// diff compares two run manifests and returns the process exit code
// (0 ok, 1 breach). Errors mean the inputs were unusable (exit 2).
func diff(w io.Writer, basePath, curPath, maxRegressStr string, allowEnv bool, sess *obs.Session) (int, error) {
	gate, err := parseMaxRegress(maxRegressStr)
	if err != nil {
		return 0, err
	}
	sess.Verbosef("diffing run manifests, gate=%v", gate)
	breaches, err := diffManifest(w, basePath, curPath, gate, allowEnv)
	if err != nil {
		return 0, err
	}
	return reportBreaches(w, breaches, gate, "metric(s)", "gated metric", maxRegressStr), nil
}

// checkEnv enforces the same-machine rule: an env error is fatal unless
// -allow-env-mismatch downgrades it, and warnings are always printed.
// Either side measured on a dirty worktree is flagged too — its commit
// stamp does not identify the code the numbers came from.
func checkEnv(w io.Writer, base, cur *obs.Env, allowEnv bool) error {
	for _, side := range []struct {
		name string
		env  *obs.Env
	}{{"baseline", base}, {"current", cur}} {
		if side.env.Dirty() {
			fmt.Fprintf(w, "warning: %s was measured on a dirty worktree (%s) — its commit does not identify the code\n",
				side.name, side.env.GitCommit)
		}
	}
	warning, err := base.Comparable(cur)
	if err != nil {
		if !allowEnv {
			return fmt.Errorf("%w (rerun with -allow-env-mismatch to compare anyway)", err)
		}
		fmt.Fprintf(w, "warning: %v (continuing: -allow-env-mismatch)\n", err)
	}
	if warning != "" {
		fmt.Fprintf(w, "warning: %s\n", warning)
	}
	return nil
}

// diffManifest compares two run manifests: counter deltas
// (report-only — counts are semantic, a delta has no regression
// percentage) and per-span wall-time ratios (gated, above the noise
// floor).
func diffManifest(w io.Writer, basePath, curPath string, gate float64, allowEnv bool) ([]string, error) {
	base, err := obs.ReadManifest(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := obs.ReadManifest(curPath)
	if err != nil {
		return nil, err
	}
	if err := checkEnv(w, manifestEnv(base), manifestEnv(cur), allowEnv); err != nil {
		return nil, err
	}
	if base.Command != cur.Command {
		fmt.Fprintf(w, "warning: comparing different commands: %s vs %s\n", base.Command, cur.Command)
	}
	diffCounters(w, base.Counters, cur.Counters)
	var breaches []string
	breaches = append(breaches, diffHistograms(w, base.Histograms, cur.Histograms, gate)...)

	baseSpans := map[string]int64{}
	curSpans := map[string]int64{}
	flattenSpans(base.Spans, "", baseSpans)
	flattenSpans(cur.Spans, "", curSpans)
	for _, path := range sortedKeys(baseSpans) {
		bNs := baseSpans[path]
		cNs, ok := curSpans[path]
		if !ok {
			fmt.Fprintf(w, "span %-40s only in baseline\n", path)
			continue
		}
		spanGate := gate
		if bNs < gateFloorNs {
			spanGate = -1 // below the noise floor: report, never gate
		}
		line, breach := ratioLine("span "+path+" wall", float64(bNs), float64(cNs), spanGate)
		fmt.Fprintln(w, line)
		if breach != "" {
			breaches = append(breaches, breach)
		}
	}
	for _, path := range sortedKeys(curSpans) {
		if _, ok := baseSpans[path]; !ok {
			fmt.Fprintf(w, "span %-40s only in current\n", path)
		}
	}
	line, breach := ratioLine("total wall", float64(base.WallNs), float64(cur.WallNs), gate)
	fmt.Fprintln(w, line)
	if breach != "" {
		breaches = append(breaches, breach)
	}
	return breaches, nil
}

// manifestEnv lifts a manifest's identity fields into an Env, the shared
// comparability and dirtiness vocabulary; nil means the identity was not
// recorded.
func manifestEnv(m *obs.Manifest) *obs.Env {
	if m.GoVersion == "" && m.GOOS == "" {
		return nil
	}
	return &obs.Env{GoVersion: m.GoVersion, GOOS: m.GOOS, GOARCH: m.GOARCH,
		CPUs: m.CPUs, GitCommit: m.GitCommit}
}

// diffCounters prints old → new (delta) for the union of two counter maps,
// flagging keys present on only one side.
func diffCounters(w io.Writer, base, cur map[string]int64) {
	keys := map[string]bool{}
	for k := range base {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inBase:
			fmt.Fprintf(w, "counter %-40s only in current (%d)\n", k, c)
		case !inCur:
			fmt.Fprintf(w, "counter %-40s only in baseline (%d)\n", k, b)
		default:
			fmt.Fprintf(w, "counter %-40s %d -> %d (%+d)\n", k, b, c, c-b)
		}
	}
}

// diffHistograms prints p50/p99 shifts for the union of two manifests'
// histogram maps and returns gate breaches. Only families with a
// registered unit suffix (see histogramGateFloors) whose baseline
// quantile clears that unit's noise floor can breach: unregistered
// families (occupancies, widths) shift legitimately with inputs, and
// near-floor quantiles are noise — both report without gating.
func diffHistograms(w io.Writer, base, cur map[string]*obs.HistogramSnapshot, gate float64) []string {
	keys := map[string]bool{}
	for k := range base {
		keys[k] = true
	}
	for k := range cur {
		keys[k] = true
	}
	var breaches []string
	for _, k := range sortedKeys(keys) {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inBase:
			fmt.Fprintf(w, "histogram %-36s only in current (n=%d)\n", k, c.Count)
			continue
		case !inCur:
			fmt.Fprintf(w, "histogram %-36s only in baseline (n=%d)\n", k, b.Count)
			continue
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			bq, cq := b.Quantile(q.q), c.Quantile(q.q)
			floor, gated := histogramGateFloor(k)
			qGate := gate
			if !gated || bq < floor {
				qGate = -1 // unregistered unit, or below its noise floor
			}
			line, breach := ratioLine("histogram "+k+" "+q.name, bq, cq, qGate)
			fmt.Fprintln(w, line)
			if breach != "" {
				breaches = append(breaches, breach)
			}
		}
	}
	return breaches
}

// flattenSpans accumulates every span's DurNs into out keyed by its
// slash-joined path from the root; repeated sibling names (e.g. one span
// per experiment cell) merge into one total.
func flattenSpans(n *obs.SpanNode, prefix string, out map[string]int64) {
	if n == nil {
		return
	}
	path := n.Name
	if prefix != "" {
		path = prefix + "/" + n.Name
	}
	out[path] += n.DurNs
	for _, c := range n.Children {
		flattenSpans(c, path, out)
	}
}

// ratioLine formats one gated metric comparison and, when the current
// value exceeds the baseline by more than gate, also returns a breach
// description. A zero baseline cannot yield a ratio: a zero→nonzero move
// breaches any configured gate (infinitely worse), zero→zero is a no-op.
func ratioLine(label string, base, cur, gate float64) (line, breach string) {
	if base == 0 {
		line = fmt.Sprintf("%-48s 0 -> %g", label, cur)
		if cur > 0 && gate >= 0 {
			breach = fmt.Sprintf("%s: 0 -> %g (no baseline to regress from)", label, cur)
		}
		return line, breach
	}
	ratio := cur / base
	pct := (ratio - 1) * 100
	line = fmt.Sprintf("%-48s %g -> %g (%+.1f%%)", label, base, cur, pct)
	if gate >= 0 && ratio > 1+gate {
		breach = fmt.Sprintf("%s: %+.1f%% (limit %+.1f%%)", label, pct, gate*100)
	}
	return line, breach
}
