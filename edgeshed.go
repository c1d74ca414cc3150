package edgeshed

// This file is the public facade: type aliases and thin wrappers over the
// internal packages, so downstream modules can use the library without
// touching internal import paths. The aliases are the same types — values
// flow freely between the facade and the internals.

import (
	"io"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/dataset"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/stream"
	"edgeshed/internal/tasks"
	"edgeshed/internal/uds"
)

// Graph is an immutable undirected graph; see Builder for construction and
// LoadFile/ReadEdgeList for I/O.
type Graph = graph.Graph

// Builder accumulates edges into a Graph.
type Builder = graph.Builder

// Edge is an undirected edge between dense node ids.
type Edge = graph.Edge

// NodeID is a dense node identifier.
type NodeID = graph.NodeID

// Remapper translates external node labels to dense ids and back.
type Remapper = graph.Remapper

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadFile reads a graph by file extension (.esc packed CSR, else text edge list).
func LoadFile(path string) (*Graph, *Remapper, error) { return graph.LoadFile(path) }

// SaveFile writes a graph by file extension (.esc packed CSR, .dot, else text).
func SaveFile(path string, g *Graph, rm *Remapper) error { return graph.SaveFile(path, g, rm) }

// ReadEdgeList parses a SNAP-style edge list stream.
func ReadEdgeList(r io.Reader) (*Graph, *Remapper, error) { return graph.ReadEdgeList(r) }

// Reducer is the interface every shedding algorithm implements.
type Reducer = core.Reducer

// Result is a reduced graph plus its quality metrics (Delta, AvgDelta, ...).
type Result = core.Result

// CRR is the paper's Centrality Ranking with Rewiring (Algorithm 1).
type CRR = core.CRR

// BM2 is the paper's B-Matching with Bipartite Matching (Algorithms 2-3).
type BM2 = core.BM2

// Random sheds edges by uniform sampling.
type Random = core.Random

// ForestFire, SpanningForest and WeightedSample are classic sampling
// baselines.
type (
	ForestFire     = core.ForestFire
	SpanningForest = core.SpanningForest
	WeightedSample = core.WeightedSample
)

// UDS is the paper's comparator, adapted to the Reducer interface.
type UDS = uds.Reducer

// CRRBound returns Theorem 1's bound on CRR's average degree discrepancy.
func CRRBound(g *Graph, p float64) float64 { return core.CRRBound(g, p) }

// BM2Bound returns Theorem 2's bound on BM2's average degree discrepancy.
func BM2Bound(g *Graph, p float64) float64 { return core.BM2Bound(g, p) }

// StreamShedder sheds a stream of edge insertions/deletions under bounded
// memory.
type StreamShedder = stream.Shedder

// StreamOptions configures NewStreamShedder.
type StreamOptions = stream.Options

// NewStreamShedder returns a one-pass streaming shedder.
func NewStreamShedder(opt StreamOptions) (*StreamShedder, error) { return stream.NewShedder(opt) }

// CentralityOptions configures betweenness computations (sampling,
// parallelism).
type CentralityOptions = centrality.Options

// NodeBetweenness returns per-node betweenness centrality.
func NodeBetweenness(g *Graph, opt CentralityOptions) []float64 {
	return centrality.NodeBetweenness(g, opt)
}

// PageRank returns the PageRank vector of an undirected graph.
func PageRank(g *Graph) []float64 {
	return analysis.PageRank(g, analysis.PageRankOptions{})
}

// DegreeDistribution returns the fraction of nodes per degree; cap > 0
// aggregates larger degrees into one bucket.
func DegreeDistribution(g *Graph, cap int) []float64 {
	return analysis.DegreeDistribution(g, cap)
}

// AverageClustering returns the mean local clustering coefficient.
func AverageClustering(g *Graph) float64 { return analysis.AverageClustering(g, 0) }

// TVD returns the total variation distance between two discrete
// distributions.
func TVD(p, q []float64) float64 { return tasks.TVD(p, q) }

// TaskSuite evaluates a reduction on the paper's seven analysis tasks.
type TaskSuite = tasks.Suite

// TaskMeasurement is one task's outcome from a TaskSuite evaluation.
type TaskMeasurement = tasks.Measurement

// Dataset describes a synthetic stand-in for one of the paper's SNAP
// datasets.
type Dataset = dataset.Spec

// Datasets returns the four stand-ins of the paper's Table II.
func Datasets() []Dataset { return dataset.Catalog() }

// DatasetByName looks up a stand-in ("ca-GrQc", "ca-HepPh", "email-Enron",
// "com-LiveJournal").
func DatasetByName(name string) (Dataset, error) { return dataset.ByName(name) }

// BarabasiAlbert, HolmeKim, ErdosRenyi and PlantedPartition generate the
// standard random graph models.
func BarabasiAlbert(n, mPer int, seed int64) *Graph { return gen.BarabasiAlbert(n, mPer, seed) }

// HolmeKim generates a Barabási–Albert graph with triad closure.
func HolmeKim(n, mPer int, pt float64, seed int64) *Graph { return gen.HolmeKim(n, mPer, pt, seed) }

// ErdosRenyi generates a uniform G(n, m) random graph.
func ErdosRenyi(n, m int, seed int64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// PlantedPartition generates a stochastic block model with c communities of
// the given size.
func PlantedPartition(c, size int, pIn, pOut float64, seed int64) *Graph {
	return gen.PlantedPartition(c, size, pIn, pOut, seed)
}
