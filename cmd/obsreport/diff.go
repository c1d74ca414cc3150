package main

import (
	"fmt"
	"io"

	"edgeshed/internal/obs"
)

// gateFloorNs is the baseline duration below which wall-time ratios are
// reported but never gated: a 0.3ms span doubling is scheduler noise, not
// a regression. It floors spans and the histograms declared in ns alike.
const gateFloorNs = 1_000_000

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
// percentage), histogram quantiles and per-span wall-time ratios (gated,
// above the noise floor).
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
		better := obs.Lower
		if bNs < gateFloorNs {
			better = obs.Info // below the noise floor: report, never gate
		}
		line, breach := ratioLine("span "+path+" wall", float64(bNs), float64(cNs), better, gate)
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
	line, breach := ratioLine("total wall", float64(base.WallNs), float64(cur.WallNs), obs.Lower, gate)
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
	for _, k := range unionKeys(base, cur) {
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
// histogram maps and returns gate breaches. A family gates only when it is
// declared in ns (obs.Describe) and its baseline quantile clears the 1 ms
// noise floor, in its declared direction: the declared durations are
// lower-is-better. Every other family (occupancies, widths, the
// micro-unit shapes of per-pop gains and per-attempt Δ changes) shifts
// legitimately with inputs, and near-floor quantiles are noise — both
// report without gating.
func diffHistograms(w io.Writer, base, cur map[string]*obs.HistogramSnapshot, gate float64) []string {
	var breaches []string
	for _, k := range unionKeys(base, cur) {
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
			better := obs.Info
			if d := obs.Describe(k); d.Unit == "ns" && bq >= gateFloorNs {
				better = d.Better
			}
			line, breach := ratioLine("histogram "+k+" "+q.name, bq, cq, better, gate)
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

// ratioLine formats one metric comparison and, when the current value
// regressed beyond gate in the better direction given, also returns a
// breach description. A zero baseline cannot yield a ratio: any move in
// the bad direction from zero breaches a set gate (infinitely worse), and
// zero→zero is a no-op.
func ratioLine(label string, base, cur float64, better string, gate float64) (line, breach string) {
	_, breached := regression(base, cur, better, gate)
	if base == 0 {
		line = fmt.Sprintf("%-48s 0 -> %g", label, cur)
		if breached {
			breach = fmt.Sprintf("%s: 0 -> %g (no baseline to regress from)", label, cur)
		}
		return line, breach
	}
	ratio := cur / base
	pct := (ratio - 1) * 100
	line = fmt.Sprintf("%-48s %g -> %g (%+.1f%%)", label, base, cur, pct)
	if breached {
		breach = fmt.Sprintf("%s: %+.1f%% (limit %+.1f%%)", label, pct, gate*100)
	}
	return line, breach
}
