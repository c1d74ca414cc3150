package tasks

import (
	"math"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/community"
	"edgeshed/internal/embed"
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
	"edgeshed/internal/par"
)

// DegreeTask compares vertex degree distributions (task 1, Figures 5(c)-(d)
// and 6). cap aggregates degrees above it, as the paper does with 300.
type DegreeTask struct {
	// Cap aggregates larger degrees into one bucket; 0 disables.
	Cap int
}

// Distributions returns the degree distributions of both graphs.
func (t DegreeTask) Distributions(orig, red *graph.Graph) (o, r []float64) {
	return analysis.DegreeDistribution(orig, t.Cap), analysis.DegreeDistribution(red, t.Cap)
}

// Error returns the total variation distance between the two distributions
// (lower is better).
func (t DegreeTask) Error(orig, red *graph.Graph) float64 {
	o, r := t.Distributions(orig, red)
	return TVD(o, r)
}

// SPDistanceTask compares shortest-path distance distributions (task 2,
// Figure 7).
type SPDistanceTask struct {
	// Sources samples BFS sources; 0 means exact.
	Sources int
	// Seed drives source sampling.
	Seed int64
	// Workers is the BFS parallelism; 0 means GOMAXPROCS. Results are
	// bit-identical at any worker count.
	Workers int
	// Obs is the parent observability span for the two profile kernels; nil
	// records nothing at no cost.
	Obs *obs.Span
}

// Distributions returns the distance distributions of both graphs.
func (t SPDistanceTask) Distributions(orig, red *graph.Graph) (o, r []float64) {
	opt := analysis.ProfileOptions{Sources: t.Sources, Seed: t.Seed, Workers: t.Workers, Obs: t.Obs}
	return analysis.NewDistanceProfile(orig, opt).Distribution(),
		analysis.NewDistanceProfile(red, opt).Distribution()
}

// Error returns the TVD between distance distributions.
func (t SPDistanceTask) Error(orig, red *graph.Graph) float64 {
	o, r := t.Distributions(orig, red)
	return TVD(o, r)
}

// HopPlotTask compares hop-plots (task 5, Figure 10).
type HopPlotTask struct {
	// Sources samples BFS sources; 0 means exact.
	Sources int
	// Seed drives source sampling.
	Seed int64
	// Workers is the BFS parallelism; 0 means GOMAXPROCS.
	Workers int
	// Obs is the parent observability span for the two profile kernels; nil
	// records nothing at no cost.
	Obs *obs.Span
}

// Series returns the cumulative reachable-pair fractions per hop.
func (t HopPlotTask) Series(orig, red *graph.Graph) (o, r []float64) {
	opt := analysis.ProfileOptions{Sources: t.Sources, Seed: t.Seed, Workers: t.Workers, Obs: t.Obs}
	return analysis.NewDistanceProfile(orig, opt).HopPlot(),
		analysis.NewDistanceProfile(red, opt).HopPlot()
}

// Error returns the mean absolute gap between hop-plots over the longer
// support.
func (t HopPlotTask) Error(orig, red *graph.Graph) float64 {
	o, r := t.Series(orig, red)
	n := len(o)
	if len(r) > n {
		n = len(r)
	}
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		var oi, ri float64 = 1, 1 // hop-plots saturate at 1 past their support
		if i < len(o) {
			oi = o[i]
		}
		if i < len(r) {
			ri = r[i]
		}
		sum += math.Abs(oi - ri)
	}
	return sum / float64(n)
}

// BetweennessTask compares node betweenness centrality aggregated by vertex
// degree (task 3, Figure 8).
type BetweennessTask struct {
	// Options configures the centrality computation (sampling for large
	// graphs).
	Options centrality.Options
}

// Series returns mean betweenness per degree for both graphs, aligned by the
// ORIGINAL graph's node degrees so the curves are comparable.
func (t BetweennessTask) Series(orig, red *graph.Graph) (o, r []float64) {
	ob := centrality.NodeBetweenness(orig, t.Options)
	rb := centrality.NodeBetweenness(red, t.Options)
	return analysis.MeanByDegree(orig, ob), analysis.MeanByDegree(orig, rb)
}

// Error returns the relative L1 gap between the two series.
func (t BetweennessTask) Error(orig, red *graph.Graph) float64 {
	o, r := t.Series(orig, red)
	denom := 0.0
	for _, x := range o {
		denom += math.Abs(x)
	}
	if denom == 0 {
		return 0
	}
	return L1(o, r) / denom
}

// ClusteringTask compares clustering coefficient by degree (task 4,
// Figure 9).
type ClusteringTask struct {
	// Workers is the triangle-counting parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Series returns mean clustering coefficient per degree, aligned by the
// original graph's degrees.
func (t ClusteringTask) Series(orig, red *graph.Graph) (o, r []float64) {
	oc := analysis.LocalClustering(orig, t.Workers)
	rc := analysis.LocalClustering(red, t.Workers)
	return analysis.MeanByDegree(orig, oc), analysis.MeanByDegree(orig, rc)
}

// Error returns the mean absolute clustering gap across degrees present in
// the original graph.
func (t ClusteringTask) Error(orig, red *graph.Graph) float64 {
	o, r := t.Series(orig, red)
	hist := analysis.DegreeHistogram(orig)
	var sum float64
	var buckets int
	for d := range o {
		if d < len(hist) && hist[d] > 0 {
			sum += math.Abs(o[d] - r[d])
			buckets++
		}
	}
	if buckets == 0 {
		return 0
	}
	return sum / float64(buckets)
}

// TopKTask is the top-t% PageRank query (task 6, Tables VIII-IX): utility is
// the overlap between the top-k vertex sets of the original and reduced
// graphs, k = |V|·t%.
type TopKTask struct {
	// TPercent is t in "top-t%"; 0 means the paper's 10.
	TPercent float64
	// PageRank configures the ranking.
	PageRank analysis.PageRankOptions
}

func (t TopKTask) tPct() float64 {
	if t.TPercent <= 0 {
		return 10
	}
	return t.TPercent
}

// Utility computes |V_t% ∩ V'_t%| / k with PageRank run on both graphs.
func (t TopKTask) Utility(orig, red *graph.Graph) float64 {
	redScores := analysis.PageRank(red, t.PageRank)
	return t.UtilityWithScores(orig, redScores)
}

// UtilityWithScores computes the top-k utility against externally supplied
// reduced-graph scores — the hook for UDS's supernode PageRank ("we adopt
// its own processing method of supernodes").
func (t TopKTask) UtilityWithScores(orig *graph.Graph, redScores []float64) float64 {
	k := int(math.Round(float64(orig.NumNodes()) * t.tPct() / 100))
	if k == 0 {
		return 0
	}
	origScores := analysis.PageRank(orig, t.PageRank)
	return Overlap(analysis.TopK(origScores, k), analysis.TopK(redScores, k))
}

// LinkPredictionTask predicts whether 2-hop vertex pairs belong to the same
// community (task 7, Table X): node2vec embeddings (p = q = 1), K-means with
// k clusters, prediction = same-cluster. Utility is |L_s ∩ L| / |L| where L
// and L_s are the positive predictions on the original and reduced graph.
type LinkPredictionTask struct {
	// Clusters is the K-means k; 0 means the paper's 5.
	Clusters int
	// Walk and SGNS configure the embedding; zero values are sensible
	// defaults.
	Walk embed.WalkConfig
	SGNS embed.SGNSConfig
	// MaxPairs caps the 2-hop candidate pairs per graph (0 = all).
	MaxPairs int
	// Seed drives pair sampling and K-means.
	Seed int64
	// Workers is Utility's parallelism: it predicts on the original and the
	// reduced graph concurrently unless Workers is 1; 0 means GOMAXPROCS.
	// Each prediction is serial and independent, so results are
	// bit-identical at any worker count.
	Workers int
}

func (t LinkPredictionTask) clusters() int {
	if t.Clusters <= 0 {
		return 5
	}
	return t.Clusters
}

// Predict returns the positive predictions for one graph: its 2-hop pairs
// whose endpoints land in the same embedding cluster.
func (t LinkPredictionTask) Predict(g *graph.Graph) []graph.Edge {
	emb := embed.Node2Vec(g, t.Walk, t.SGNS)
	labels := embed.KMeans(emb, t.clusters(), 0, t.Seed)
	var out []graph.Edge
	for _, pair := range analysis.TwoHopPairs(g, t.MaxPairs, t.Seed) {
		if labels[pair.U] == labels[pair.V] {
			out = append(out, pair)
		}
	}
	return out
}

// Utility computes |L_s ∩ L| / |L|.
func (t LinkPredictionTask) Utility(orig, red *graph.Graph) float64 {
	sides := [2]*graph.Graph{orig, red}
	var preds [2][]graph.Edge
	workers := par.Workers(t.Workers, len(sides))
	par.Run(workers, func(w int) {
		for i := w; i < len(sides); i += workers {
			preds[i] = t.Predict(sides[i])
		}
	})
	return PairOverlap(preds[0], preds[1])
}

// LabelPropagationLinkTask is an embedding-free variant of the
// link-prediction task: communities come from label propagation instead of
// node2vec + K-means. It is orders of magnitude cheaper and serves as a
// robustness check that the task-7 conclusions do not hinge on the
// embedding pipeline.
type LabelPropagationLinkTask struct {
	// Propagation configures detection.
	Propagation community.LabelPropagationOptions
	// MaxPairs caps the 2-hop candidate pairs per graph (0 = all).
	MaxPairs int
	// Seed drives pair sampling.
	Seed int64
}

// Predict returns the same-community 2-hop pairs of g under label
// propagation.
func (t LabelPropagationLinkTask) Predict(g *graph.Graph) []graph.Edge {
	labels := community.LabelPropagation(g, t.Propagation)
	return community.SameCommunityPairs(analysis.TwoHopPairs(g, t.MaxPairs, t.Seed), labels)
}

// Utility computes |L_s ∩ L| / |L| with label-propagation communities.
func (t LabelPropagationLinkTask) Utility(orig, red *graph.Graph) float64 {
	return PairOverlap(t.Predict(orig), t.Predict(red))
}
