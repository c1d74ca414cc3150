package main

import (
	"math"
	"sort"

	"edgeshed/internal/obs"
)

// metricDef names one reported metric, its unit and its better direction;
// BENCHMARK.json lists the same names (pinned by TestNamesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of shed or evaluate sees, measured with
// obs off. avg_dis is the suite's reduction's on suite-grqc.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"avg_dis", "edges/node", "lower"},
}

// perLayer are the per-module metrics. A layer a workload does not run
// reads 0 there. README.md marks with (o) the ones timed from outside
// around public calls; the rest come from the traced rep.
var perLayer = []metricDef{
	{"graph.open_s", "s", "lower"},
	{"graph.write_s", "s", "lower"},
	{"graph.write_mbps", "MB/s", "higher"},
	{"graph.map_s", "s", "lower"},
	{"core.reduce_s", "s", "lower"},
	{"centrality.betweenness_s", "s", "lower"},
	{"centrality.idle_frac", "ratio", "lower"},
	{"centrality.speedup_w1", "x", "higher"},
	{"msbfs.batches", "count", "lower"},
	{"msbfs.mean_occupancy", "ratio", "higher"},
	{"msbfs.words_scanned", "count", "lower"},
	{"brandes.edge_folds", "count", "lower"},
	{"brandes.fold_rate", "1/s", "higher"},
	{"brandes.fold_gb_computed", "GB", "lower"},
	{"crr.rank_self_s", "s", "lower"},
	{"crr.rewire_s", "s", "lower"},
	{"crr.rewire_ns_per_attempt", "ns", "lower"},
	{"crr.accept_ratio", "ratio", "higher"},
	{"crr.result_s", "s", "lower"},
	{"bm2.bmatching_s", "s", "lower"},
	{"bm2.bipartite_s", "s", "lower"},
	{"bm2.result_s", "s", "lower"},
	{"flatpq.pushes", "count", "lower"},
	{"flatpq.pops", "count", "lower"},
	{"flatpq.updates", "count", "lower"},
	{"flatpq.removes", "count", "lower"},
	{"flatpq.pop_ratio", "ratio", "higher"},
	{"tasks.evaluate_s", "s", "lower"},
	{"tasks.degree_s", "s", "lower"},
	{"tasks.sp_distance_s", "s", "lower"},
	{"tasks.betweenness_s", "s", "lower"},
	{"tasks.clustering_s", "s", "lower"},
	{"tasks.hop_plot_s", "s", "lower"},
	{"tasks.top_k_s", "s", "lower"},
	{"tasks.node2vec_s", "s", "lower"},
	{"tasks.label_prop_s", "s", "lower"},
	{"go.alloc_mb", "MiB", "lower"},
	{"obs.overhead_frac", "ratio", "lower"},
	{"trace.unaccounted_frac", "ratio", "lower"},
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median; 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method). With fewer than two
// values both are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a / b, or 0 when b is 0, so an unexercised layer reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanTimes sums, per span name, every span's duration (total) and its self
// time: the duration less the part of its interval that its children cover.
// Children may overlap (parallel sweeps), so coverage is the union of their
// intervals.
func spanTimes(root *obs.SpanNode) (self, total map[string]float64) {
	self, total = map[string]float64{}, map[string]float64{}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		total[n.Name] += float64(n.DurNs) / 1e9
		self[n.Name] += float64(n.DurNs-covered(n)) / 1e9
		for _, c := range n.Children {
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	return self, total
}

// covered is how many nanoseconds of n's interval its children cover.
func covered(n *obs.SpanNode) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(n.Children))
	end := n.StartNs + n.DurNs
	for _, c := range n.Children {
		lo, hi := max(c.StartNs, n.StartNs), min(c.StartNs+c.DurNs, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, reach int64 = 0, math.MinInt64
	for _, v := range ivs {
		lo := max(v.lo, reach)
		if v.hi > lo {
			sum += v.hi - lo
		}
		reach = max(reach, v.hi)
	}
	return sum
}

// idleFrac is 1 − Σ worker busy ÷ (workers · duration) over every span
// named name that recorded worker busy time.
func idleFrac(root *obs.SpanNode, name string) float64 {
	var busy, capacity float64
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == name && len(n.WorkerBusyNs) > 0 {
			for _, b := range n.WorkerBusyNs {
				busy += float64(b)
			}
			capacity += float64(len(n.WorkerBusyNs)) * float64(n.DurNs)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if root != nil {
		walk(root)
	}
	if capacity == 0 {
		return 0
	}
	return 1 - busy/capacity
}

// setupReport is the setup child's output.
type setupReport struct {
	Nodes, Edges int
	PackS        []float64 // one PackEdgeListFile run each
}

// runReport is the untraced child's output.
type runReport struct {
	Reps      []stages
	Outcome   *outcome
	Attempted int
	Failed    int
	Errors    []string
}

// traceReport is the traced child's output.
type traceReport struct {
	Rep        stages
	Spans      *obs.SpanNode // the "rep" span
	Counters   map[string]int64
	Histograms map[string]*obs.HistogramSnapshot
	SpeedupW1  float64
	Outcome    *outcome
	Attempted  int
	Failed     int
	Errors     []string
}

// endToEndMetrics derives the end-to-end metrics of one workload run;
// maxRSSKiB is the untraced child's peak RSS.
func endToEndMetrics(setup setupReport, run runReport, maxRSSKiB int64) map[string]float64 {
	var avgDis float64
	if run.Outcome != nil {
		avgDis = run.Outcome.AvgDis
	}
	return map[string]float64{
		"wall_s":      median(walls(run.Reps)),
		"setup_s":     median(setup.PackS),
		"peak_rss_mb": float64(maxRSSKiB) / 1024,
		"avg_dis":     avgDis,
	}
}

// layerMetrics derives the per-layer metrics from the untraced reps' outside
// timings and the traced rep's spans, counters and histograms.
func layerMetrics(run runReport, tr traceReport) map[string]float64 {
	self, total := spanTimes(tr.Spans)
	c := func(name string) float64 { return float64(tr.Counters[name]) }
	med := func(f func(stages) float64) float64 { return median(column(run.Reps, f)) }
	var occupancy float64
	if h := tr.Histograms["msbfs.batch_occupancy"]; h != nil {
		occupancy = ratio(float64(h.Sum), float64(h.Count)*64)
	}
	folds := c("brandes.edge_folds")
	m := map[string]float64{
		"graph.open_s":              med(func(s stages) float64 { return s.Open }),
		"graph.write_s":             med(func(s stages) float64 { return s.Write }),
		"graph.write_mbps":          ratio(float64(tr.Rep.WriteBytes)/1e6, total["write"]),
		"graph.map_s":               total["map"],
		"core.reduce_s":             med(func(s stages) float64 { return s.Reduce }),
		"centrality.betweenness_s":  total["betweenness"],
		"centrality.idle_frac":      idleFrac(tr.Spans, "betweenness"),
		"centrality.speedup_w1":     tr.SpeedupW1,
		"msbfs.batches":             c("msbfs.batches_done"),
		"msbfs.mean_occupancy":      occupancy,
		"msbfs.words_scanned":       c("msbfs.words_scanned"),
		"brandes.edge_folds":        folds,
		"brandes.fold_rate":         ratio(folds, total["betweenness"]),
		"brandes.fold_gb_computed":  folds * 16 / 1e9,
		"crr.rank_self_s":           self["crr.phase1.rank"],
		"crr.rewire_s":              total["crr.phase2.rewire"],
		"crr.rewire_ns_per_attempt": ratio(total["crr.phase2.rewire"]*1e9, c("crr.rewire.attempts")),
		"crr.accept_ratio":          ratio(c("crr.rewire.accepted"), c("crr.rewire.attempts")),
		"crr.result_s":              self["crr.reduce"],
		"bm2.bmatching_s":           total["bm2.bmatching"],
		"bm2.bipartite_s":           total["bm2.bipartite"],
		"bm2.result_s":              self["bm2.reduce"],
		"flatpq.pushes":             c("flatpq.pushes"),
		"flatpq.pops":               c("flatpq.pops"),
		"flatpq.updates":            c("flatpq.updates"),
		"flatpq.removes":            c("flatpq.removes"),
		"flatpq.pop_ratio":          ratio(c("flatpq.pops"), c("flatpq.pushes")),
		"tasks.evaluate_s":          med(func(s stages) float64 { return s.Evaluate }),
		"go.alloc_mb":               med(func(s stages) float64 { return s.AllocMB }),
		"obs.overhead_frac":         ratio(tr.Rep.Wall, median(walls(run.Reps))) - 1,
		"trace.unaccounted_frac":    ratio(self["rep"], total["rep"]),
	}
	for _, r := range suiteRows {
		m["tasks."+r.short+"_s"] = total["task:"+r.task]
	}
	return m
}
