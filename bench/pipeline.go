package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
	"edgeshed/internal/tasks"
)

// workload is one input and the pipeline each rep runs over it.
type workload struct {
	name, why string
	dataset   string
	scale     int     // dataset.Spec.Build scale divisor
	method    string  // "crr", "bm2" or "suite"
	p         float64 // preservation ratio (the suite's: of its BM2 reduction)
	samples   int     // CRR betweenness source samples; 0 = exact
	speedup   bool    // measure centrality.speedup_w1
}

// workloads is the benchmark's workload table. The sizes span 5·10^3 to
// 2.5·10^5 nodes; a 10^6-node input costs more to generate and pack per
// seed than one run may spend.
var workloads = []workload{
	{
		name: "crr-exact-hepph", dataset: "ca-HepPh", scale: 1, method: "crr", p: 0.5, speedup: true,
		why: "cmd/shed's default, exact CRR (Algorithm 1) at 1.2e4 nodes: Phase 1 edge betweenness is ~97% of a rep, in full 64-source MS-BFS batches over ~12 MB of rows per worker",
	},
	{
		name: "crr-sampled-lj100k", dataset: "com-LiveJournal", scale: 40, method: "crr", p: 0.5, samples: 256,
		why: "sampled CRR at 1e5 nodes, the predicted MS-BFS crossover: quarter-full batches over ~100 MB of rows per worker, plus a 4.5M-attempt Phase 2 rewire",
	},
	{
		name: "bm2-lj250k", dataset: "com-LiveJournal", scale: 16, method: "bm2", p: 0.3,
		why: "BM2 at 2.5e5 nodes runs no betweenness, so it is the control for centrality changes; the FlatPQ bipartite pass and the write dominate, and its pack is the largest",
	},
	{
		name: "suite-grqc", dataset: "ca-GrQc", scale: 1, method: "suite", p: 0.3,
		why: "the eight-task evaluation suite against a BM2 reduction at 5e3 nodes: the only workload running embed, community and analysis; node2vec dominates",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Suite settings: the experiments harness's sampling for graphs past 2048
// nodes and cmd/evaluate's link-prediction pair cap.
const (
	suiteSources  = 256
	suiteMaxPairs = 20000
)

// suiteRows gives each tasks.Suite row the short name metrics and pins use,
// in Evaluate's order.
var suiteRows = []struct{ task, short string }{
	{"vertex degree", "degree"},
	{"shortest-path distance", "sp_distance"},
	{"betweenness centrality", "betweenness"},
	{"clustering coefficient", "clustering"},
	{"hop-plot", "hop_plot"},
	{"top-10% query", "top_k"},
	{"link prediction (node2vec)", "node2vec"},
	{"link prediction (label prop)", "label_prop"},
}

// paths locates one workload's files under the benchmark's build directory.
type paths struct {
	text, packed, out, tmp string
}

func pathsFor(dir string, w workload, seed int64) paths {
	stem := fmt.Sprintf("%s-s%d-seed%d", w.dataset, w.scale, seed)
	return paths{
		text:   filepath.Join(dir, "inputs", stem+".txt"),
		packed: filepath.Join(dir, "work", w.name+".esc"),
		out:    filepath.Join(dir, "work", w.name+".out.txt"),
		tmp:    filepath.Join(dir, "tmp"),
	}
}

// ensureInput generates the workload's SNAP text input for seed unless it is
// already cached. Only the latest seed's file is kept per dataset and scale,
// so the cache stays one file per input size however many seeds run.
func ensureInput(w workload, seed int64, p paths) error {
	if _, err := os.Stat(p.text); err == nil {
		return nil
	}
	dir := filepath.Dir(p.text)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stale, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("%s-s%d-seed*.txt", w.dataset, w.scale)))
	if err != nil {
		return err
	}
	for _, f := range stale {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	spec, err := dataset.ByName(w.dataset)
	if err != nil {
		return err
	}
	g, err := spec.Build(w.scale, seed)
	if err != nil {
		return err
	}
	tmp := p.text + ".partial"
	if err := graph.WriteEdgeListFile(tmp, g, nil); err != nil {
		return err
	}
	return os.Rename(tmp, p.text)
}

// fingerprint identifies an edge set independently of edge order and dense
// node ids: the edge count and the wrapping sum of a splitmix64 hash of
// each edge's (min, max) external label pair.
func fingerprint(g *graph.Graph, rm *graph.Remapper) string {
	var sum uint64
	for _, e := range g.Edges() {
		a, b := rm.Label(e.U), rm.Label(e.V)
		if a > b {
			a, b = b, a
		}
		sum += splitmix64(splitmix64(uint64(a)) ^ uint64(b))
	}
	return fmt.Sprintf("%d:%016x", g.NumEdges(), sum)
}

func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// outcome is what one rep produced, in the terms the checks compare; a
// pin in pins.json is the outcome at the pinned seed. The headroom is
// checked in the child and not compared.
type outcome struct {
	Fingerprint string             `json:"fingerprint"`
	KeptEdges   int                `json:"kept_edges"`
	AvgDis      float64            `json:"avg_dis"`
	Headroom    float64            `json:"-"`
	Suite       map[string]float64 `json:"suite,omitempty"`
}

//go:embed pins.json
var pinsJSON []byte

// pins holds the outcomes every workload must reproduce at the pinned seed.
type pins struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]outcome `json:"workloads"`
}

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// matches reports how o differs from want; floats compare bit for bit.
func (o outcome) matches(want outcome) error {
	if o.Fingerprint != want.Fingerprint || o.KeptEdges != want.KeptEdges || math.Float64bits(o.AvgDis) != math.Float64bits(want.AvgDis) {
		return fmt.Errorf("output %s |E'|=%d avg_dis=%v, want %s |E'|=%d avg_dis=%v",
			o.Fingerprint, o.KeptEdges, o.AvgDis, want.Fingerprint, want.KeptEdges, want.AvgDis)
	}
	if len(o.Suite) != len(want.Suite) {
		return fmt.Errorf("%d suite values, want %d", len(o.Suite), len(want.Suite))
	}
	for k, v := range want.Suite {
		if got, ok := o.Suite[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
			return fmt.Errorf("suite %s = %v, want %v", k, got, v)
		}
	}
	return nil
}

// stages times one rep from outside, around the public calls.
type stages struct {
	Wall, Open, Reduce, Write, Evaluate float64 // seconds
	AllocMB                             float64 // heap bytes allocated, MiB
	WriteBytes                          int64   // size of the written output
}

// pipeline is one workload's per-rep work inside a child process.
type pipeline interface {
	// rep runs one timed pass. sp, nil when untraced, is the parent of the
	// rep's "rep" span and of the harness spans around each layer call.
	rep(sp *obs.Span) (stages, outcome, error)
	// check verifies what rep left on disk, outside the timer, and
	// completes the outcome.
	check(o outcome) (outcome, error)
}

// open maps the packed input. Untraced reps use OpenPacked and Close, so
// repeated reps do not accumulate mappings; the traced rep loads through
// LoadFileObs for its "map" span and keeps that one mapping.
func open(path string, sp *obs.Span) (*graph.Graph, *graph.Remapper, func() error, error) {
	if sp == nil {
		pg, err := graph.OpenPacked(path)
		if err != nil {
			return nil, nil, nil, err
		}
		return pg.Graph(), pg.Remapper(), pg.Close, nil
	}
	g, rm, err := graph.LoadFileObs(path, sp)
	return g, rm, func() error { return nil }, err
}

func newPipeline(w workload, seed int64, p paths) (pipeline, error) {
	switch w.method {
	case "crr":
		return &shedPipeline{p: p, ratio: w.p, method: "CRR", reducer: func(sp *obs.Span) core.Reducer {
			bopt := centrality.Options{Samples: w.samples, Seed: seed + 1}
			return core.CRR{Seed: seed, Betweenness: bopt, Obs: sp}
		}}, nil
	case "bm2":
		return &shedPipeline{p: p, ratio: w.p, method: "BM2", reducer: func(sp *obs.Span) core.Reducer {
			return core.BM2{Obs: sp}
		}}, nil
	case "suite":
		return newSuitePipeline(w, seed, p)
	}
	return nil, fmt.Errorf("workload %s: unknown method %q", w.name, w.method)
}

// shedPipeline is cmd/shed with one -p: open, reduce, write.
type shedPipeline struct {
	p       paths
	ratio   float64
	method  string
	reducer func(sp *obs.Span) core.Reducer
}

func (s *shedPipeline) rep(parent *obs.Span) (st stages, o outcome, err error) {
	sp := parent.Start("rep")
	t0 := time.Now()
	osp := sp.Start("open")
	g, rm, closeFn, err := open(s.p.packed, osp)
	osp.End()
	if err != nil {
		return st, o, err
	}
	defer func() {
		if cerr := closeFn(); err == nil {
			err = cerr
		}
	}()
	t1 := time.Now()
	rsp := sp.Start("reduce")
	res, err := s.reducer(rsp).Reduce(g, s.ratio)
	rsp.End()
	if err != nil {
		return st, o, err
	}
	t2 := time.Now()
	wsp := sp.Start("write")
	err = graph.WriteEdgeListFile(s.p.out, res.Reduced, rm)
	wsp.End()
	t3 := time.Now()
	sp.End()
	if err != nil {
		return st, o, err
	}
	st = stages{Wall: t3.Sub(t0).Seconds(), Open: t1.Sub(t0).Seconds(), Reduce: t2.Sub(t1).Seconds(), Write: t3.Sub(t2).Seconds()}
	fi, err := os.Stat(s.p.out)
	if err != nil {
		return st, o, err
	}
	st.WriteBytes = fi.Size()
	// The quality summary reads the input graph, so it runs before the
	// deferred Close, outside the timed region.
	q := core.QualityOf(res, s.method)
	return st, outcome{KeptEdges: q.KeptEdges, AvgDis: q.AvgDisPerNode, Headroom: q.Headroom}, nil
}

// check re-reads the written edge list and fingerprints it, so a short or
// corrupted write fails the rep.
func (s *shedPipeline) check(o outcome) (outcome, error) {
	g, rm, err := graph.ReadEdgeListFile(s.p.out)
	if err != nil {
		return o, fmt.Errorf("re-reading output: %w", err)
	}
	if g.NumEdges() != o.KeptEdges {
		return o, fmt.Errorf("output holds %d edges, reduction kept %d", g.NumEdges(), o.KeptEdges)
	}
	o.Fingerprint = fingerprint(g, rm)
	return o, nil
}

// suitePipeline is cmd/evaluate: open the original, run the suite against a
// reduction built once per process.
type suitePipeline struct {
	p    paths
	seed int64
	red  *graph.Graph
	base outcome // the reduction's summary, shared by every rep
}

func newSuitePipeline(w workload, seed int64, p paths) (*suitePipeline, error) {
	pg, err := graph.OpenPacked(p.packed)
	if err != nil {
		return nil, err
	}
	defer pg.Close()
	res, err := core.BM2{}.Reduce(pg.Graph(), w.p)
	if err != nil {
		return nil, err
	}
	q := core.QualityOf(res, "BM2")
	base := outcome{
		Fingerprint: fingerprint(res.Reduced, pg.Remapper()),
		KeptEdges:   q.KeptEdges,
		AvgDis:      q.AvgDisPerNode,
		Headroom:    q.Headroom,
	}
	return &suitePipeline{p: p, seed: seed, red: res.Reduced, base: base}, nil
}

func (s *suitePipeline) rep(parent *obs.Span) (st stages, o outcome, err error) {
	sp := parent.Start("rep")
	t0 := time.Now()
	osp := sp.Start("open")
	g, _, closeFn, err := open(s.p.packed, osp)
	osp.End()
	if err != nil {
		return st, o, err
	}
	defer func() {
		if cerr := closeFn(); err == nil {
			err = cerr
		}
	}()
	t1 := time.Now()
	esp := sp.Start("evaluate")
	suite := tasks.Suite{Sources: suiteSources, MaxPairs: suiteMaxPairs, Seed: s.seed, Obs: esp}
	ms := suite.Evaluate(g, s.red)
	esp.End()
	t2 := time.Now()
	sp.End()
	if len(ms) != len(suiteRows) {
		return st, o, fmt.Errorf("suite returned %d rows, want %d", len(ms), len(suiteRows))
	}
	o = s.base
	o.Suite = make(map[string]float64, len(ms))
	for i, m := range ms {
		if m.Task != suiteRows[i].task {
			return st, o, fmt.Errorf("suite row %d is %q, want %q", i, m.Task, suiteRows[i].task)
		}
		o.Suite[suiteRows[i].short] = m.Value
	}
	st = stages{Wall: t2.Sub(t0).Seconds(), Open: t1.Sub(t0).Seconds(), Evaluate: t2.Sub(t1).Seconds()}
	return st, o, nil
}

func (s *suitePipeline) check(o outcome) (outcome, error) { return o, nil }

// tally runs reps and counts the ones that error or fail a check. Every
// rep must reproduce the first good rep's outcome exactly, keep its theorem
// headroom non-negative, and, when pinned, match the pin.
type tally struct {
	pin       *outcome
	ref       *outcome
	attempted int
	failed    int
	errs      []string
}

// maxErrs bounds the failure messages a child reports.
const maxErrs = 5

func (t *tally) do(p pipeline, sp *obs.Span) (stages, bool) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st, o, err := p.rep(sp)
	runtime.ReadMemStats(&m1)
	st.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	t.attempted++
	if err == nil {
		o, err = p.check(o)
	}
	if err == nil {
		err = t.verify(o)
	}
	if err != nil {
		t.failed++
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, err.Error())
		}
		return st, false
	}
	return st, true
}

func (t *tally) verify(o outcome) error {
	if o.Headroom < 0 {
		return fmt.Errorf("theorem headroom %v < 0", o.Headroom)
	}
	if t.pin != nil {
		if err := o.matches(*t.pin); err != nil {
			return fmt.Errorf("pinned outcome: %w", err)
		}
	}
	if t.ref == nil {
		t.ref = &o
		return nil
	}
	if err := o.matches(*t.ref); err != nil {
		return fmt.Errorf("differs from the first rep: %w", err)
	}
	return nil
}

// minReps is the fewest timed reps a run makes, whatever their length.
const minReps = 2

// measure runs one discarded warm-up rep, then timed reps until the next one
// would end past seconds (at least minReps). Failed reps are counted, not
// timed.
func (t *tally) measure(p pipeline, seconds float64) []stages {
	warm, _ := t.do(p, nil)
	est := warm.Wall
	var reps []stages
	start := time.Now()
	for n := 0; ; n++ {
		if n >= minReps && time.Since(start).Seconds()+est > seconds {
			return reps
		}
		if st, ok := t.do(p, nil); ok {
			reps = append(reps, st)
			est = median(walls(reps))
		}
	}
}

func walls(reps []stages) []float64 {
	return column(reps, func(s stages) float64 { return s.Wall })
}

func column(reps []stages, f func(stages) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// speedupW1 times EdgeBetweennessScores at one worker and at GOMAXPROCS on
// the packed input, checking that both return the same bits.
func speedupW1(path string, seed int64) (float64, error) {
	pg, err := graph.OpenPacked(path)
	if err != nil {
		return 0, err
	}
	defer pg.Close()
	g := pg.Graph()
	runtime.GC()
	t0 := time.Now()
	one := centrality.EdgeBetweennessScores(g, centrality.Options{Seed: seed + 1, Workers: 1})
	t1 := time.Now()
	all := centrality.EdgeBetweennessScores(g, centrality.Options{Seed: seed + 1})
	t2 := time.Now()
	for i := range one {
		if math.Float64bits(one[i]) != math.Float64bits(all[i]) {
			return 0, errors.New("edge betweenness differs between 1 worker and GOMAXPROCS")
		}
	}
	return t1.Sub(t0).Seconds() / t2.Sub(t1).Seconds(), nil
}
