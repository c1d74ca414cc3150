// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V) on the synthetic SNAP stand-ins. Each experiment is
// addressable by the paper artifact id ("t3" for Table III, "fig7" for
// Figure 7, ...) and prints the same rows or series the paper reports.
//
// Absolute numbers differ from the paper — substrate, hardware and datasets
// are all stand-ins — but the comparisons the paper draws (who wins, by
// what order of magnitude, where quality collapses) are reproduced. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
	"edgeshed/internal/uds"
)

// Config controls dataset sizing and output for all experiments.
type Config struct {
	// Out receives the printed tables and series.
	Out io.Writer
	// Scale divides every dataset's node count; 0 means 16 (laptop-friendly).
	// com-LiveJournal always gets 16x this divisor on top, as even the paper
	// treats it separately.
	Scale int
	// Seed offsets all dataset and algorithm seeds for replication studies.
	Seed int64
	// Ps are the edge-preservation ratios; nil means 0.9 down to 0.1.
	Ps []float64
	// SkipUDS drops the UDS comparator (it dominates runtime at small p,
	// exactly as in the paper).
	SkipUDS bool
	// Markdown renders tables as GitHub-flavored Markdown instead of
	// aligned plain text.
	Markdown bool
	// Workers is the parallelism for analysis and centrality kernels; 0
	// means GOMAXPROCS. Every kernel follows the internal/par determinism
	// discipline, so measured values are identical at any worker count
	// (timings, of course, are not).
	Workers int
	// Batch is the MS-BFS sources-per-batch width for the centrality
	// kernels, 1..64; 0 or out of range selects the engine's full 64-wide
	// word. Like Workers it is a performance knob only — measured values
	// are identical at any width.
	Batch int
	// Progress, when non-nil, receives one printf-style line per completed
	// unit of experiment work — a (dataset, p, method) cell, a figure
	// series, a sweep point — so long sweeps show signs of life instead of
	// printing nothing until the final table. cmd/experiments wires it to
	// the -v logger; nil drops the lines at no cost.
	Progress func(format string, args ...any)
}

// progress reports one completed unit of work to the configured sink.
func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// PsOrDefault exposes the effective preservation ratios (the default sweep
// when none are configured), for provenance headers.
func (c Config) PsOrDefault() []float64 { return c.ps() }

// render writes a table in the configured format.
func (c Config) render(t *table) error {
	if c.Markdown {
		return t.renderMarkdown(c.Out)
	}
	return t.render(c.Out)
}

func (c Config) scale() int {
	if c.Scale <= 0 {
		return 16
	}
	return c.Scale
}

func (c Config) ps() []float64 {
	if len(c.Ps) > 0 {
		return c.Ps
	}
	return []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
}

// build constructs the stand-in for the named dataset at the configured
// scale.
func (c Config) build(name string) (*graph.Graph, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	scale := c.scale()
	if name == "com-LiveJournal" {
		scale *= 16
	}
	return spec.Build(scale, spec.DefaultSeed+c.Seed)
}

// betweennessOptions picks exact Brandes for small graphs and source
// sampling for larger ones, mirroring the paper's resource-constraint
// premise.
func betweennessOptions(g *graph.Graph, seed int64, workers, batch int) centrality.Options {
	if g.NumNodes() <= 2048 {
		return centrality.Options{Workers: workers, Batch: batch}
	}
	samples := 256
	if g.NumNodes() < 8*samples {
		samples = g.NumNodes() / 8
	}
	return centrality.Options{Samples: samples, Seed: seed, Workers: workers, Batch: batch}
}

// reducerSet returns the paper's three methods configured for graph g, in
// table order (UDS, CRR, BM2). The UDS entry is nil when skipped.
func (c Config) reducerSet(g *graph.Graph) []core.Reducer {
	bopt := betweennessOptions(g, c.Seed+77, c.Workers, c.Batch)
	set := []core.Reducer{
		nil,
		core.CRR{Seed: c.Seed + 1, Betweenness: bopt, Workers: c.Workers},
		core.BM2{},
	}
	if !c.SkipUDS {
		set[0] = uds.Reducer{
			Summarizer: uds.Summarizer{Betweenness: bopt, Seed: c.Seed + 2},
			ExpandSeed: c.Seed + 3,
		}
	}
	return set
}

// timed runs fn and returns its duration.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the paper artifact id ("fig4" ... "fig10", "t3" ... "t10"), an
	// ablation id ("ab1", "ab4", "ab5", "ab6", "ab8") or an extension id;
	// -list prints them all.
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// Run executes the experiment, writing to cfg.Out.
	Run func(cfg Config) error
}

// All returns every experiment in paper order: figures, tables, ablations.
func All() []Experiment {
	return []Experiment{
		{"fig4", "Figure 4: CRR steps sweep (quality and time vs x)", runFig4},
		{"fig5ab", "Figure 5(a)-(b): measured error vs theoretical bounds", runFig5ab},
		{"fig5cd", "Figure 5(c)-(d) + Figure 6: vertex degree distribution", runFig5cd},
		{"fig7", "Figure 7: shortest-path distance distribution", runFig7},
		{"fig8", "Figure 8: betweenness centrality vs vertex degree", runFig8},
		{"fig9", "Figure 9: clustering coefficient vs vertex degree", runFig9},
		{"fig10", "Figure 10: hop-plot", runFig10},
		{"t3", "Table III: graph reduction time", runT3},
		{"t4", "Table IV: total processing time on ca-GrQc (heavy tasks)", runT4},
		{"t5", "Table V: total processing time on ca-GrQc (light tasks)", runT5},
		{"t6", "Table VI: analysis time on reduced email-Enron (heavy tasks)", runT6},
		{"t7", "Table VII: analysis time on reduced email-Enron (light tasks)", runT7},
		{"t8", "Table VIII: utility of top-10% queries I", runT8},
		{"t9", "Table IX: utility of top-10% queries II", runT9},
		{"t10", "Table X: utility of link prediction", runT10},
		{"ab1", "Ablation: exact vs sampled betweenness inside CRR", runAblationSampling},
		{"ab4", "Ablation: BM2 Phase-1 b-matching edge order", runAblationOrder},
		{"ab5", "Ablation: CRR rewiring on vs off across p", runAblationRewiring},
		{"ab6", "Ablation: CRR Phase-1 importance (betweenness vs proxies)", runAblationImportance},
		{"ab8", "Ablation: UDS 2-hop candidate cap (memoization knob)", runAblationUDSCap},
		{"noise", "Extension: noise filtering — do reducers shed spurious edges first?", runNoise},
		{"headline", "Headline: abstract's accuracy-gain and time-ratio claims", runHeadline},
		{"quality", "Quality suite: all tasks × all methods in one table", runQuality},
		{"memory", "Memory footprint of reduced graphs across p", runMemory},
		{"baselines", "Extension: CRR/BM2 vs classic sampling baselines", runBaselines},
		{"stream", "Extension: one-pass streaming shedder vs reservoir and offline BM2", runStream},
	}
}

// ByID looks an experiment up by its paper artifact id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("unknown experiment id %q (have %v)", id, ids)
}
