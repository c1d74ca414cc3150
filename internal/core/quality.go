package core

import (
	"strings"

	"edgeshed/internal/obs"
)

// RatioQuality is the per-ratio quality summary of one reduction: the kept
// edge counts, the paper's Δ objective, and the Theorem 1/2 bound with its
// headroom. It is the single derivation behind both `cmd/shed -stats-json`
// rows and the end-of-reduce quality probes in the manifest, so the two
// outputs cannot drift (pinned by the stats-vs-manifest agreement test).
type RatioQuality struct {
	// P is the edge-preservation ratio.
	P float64
	// KeptEdges is |E'|, the reduced graph's edge count.
	KeptEdges int
	// KeptFraction is |E'| / |E|.
	KeptFraction float64
	// Delta is Δ = Σ_u |dis(u)| (Equation 4).
	Delta float64
	// AvgDisPerNode is Δ/|V|, the quantity Theorems 1 and 2 bound.
	AvgDisPerNode float64
	// BoundName names the theorem bounding this method ("theorem1" for CRR,
	// "theorem2" for BM2); empty when the method has no bound.
	BoundName string
	// Bound is the theorem's bound value; 0 without a bound.
	Bound float64
	// Headroom is Bound − AvgDisPerNode, the margin by which the run beats
	// its theorem (higher is better); 0 without a bound.
	Headroom float64
}

// QualityOf summarizes a reduction's quality. The method name selects the
// theorem bound ("CRR" → Theorem 1, "BM2" → Theorem 2, anything else →
// none); Delta is recomputed exactly from the reduced graph, so two calls
// on the same Result produce identical bits.
func QualityOf(res *Result, method string) RatioQuality {
	q := RatioQuality{
		P:             res.P,
		KeptEdges:     res.Reduced.NumEdges(),
		Delta:         res.Delta(),
		AvgDisPerNode: res.AvgDisPerNode(),
	}
	if m := res.Original.NumEdges(); m > 0 {
		q.KeptFraction = float64(q.KeptEdges) / float64(m)
	}
	switch method {
	case "CRR":
		q.BoundName = "theorem1"
		q.Bound = CRRBound(res.Original, res.P)
	case "BM2":
		q.BoundName = "theorem2"
		q.Bound = BM2Bound(res.Original, res.P)
	}
	if q.BoundName != "" {
		q.Headroom = q.Bound - q.AvgDisPerNode
	}
	return q
}

// record emits the summary onto sp's quality probes under the method's
// lowercase prefix ("crr.kept_edges", "bm2.headroom.theorem2", ...), from
// worker slot. Called once at the end of a reduce — never on the hot path —
// and free when sp is nil.
func (q RatioQuality) record(sp *obs.Span, slot int, method string) {
	if !sp.Enabled() {
		return
	}
	prefix := strings.ToLower(method) + "."
	sp.Quality(prefix+"kept_edges").RecordAt(slot, q.P, float64(q.KeptEdges))
	sp.Quality(prefix+"kept_fraction").RecordAt(slot, q.P, q.KeptFraction)
	sp.Quality(prefix+"delta").RecordAt(slot, q.P, q.Delta)
	sp.Quality(prefix+"avg_dis").RecordAt(slot, q.P, q.AvgDisPerNode)
	if q.BoundName != "" {
		sp.Quality(prefix+"bound."+q.BoundName).RecordAt(slot, q.P, q.Bound)
		sp.Quality(prefix+"headroom."+q.BoundName).RecordAt(slot, q.P, q.Headroom)
	}
}
