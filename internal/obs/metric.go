package obs

// The metric declarations (DESIGN.md §12.1): every counter, histogram and
// quality probe the module registers is declared here once, and the
// /metrics HELP lines, the manifest's quality_timeline[].better, the
// metric-name lint and cmd/obsreport's two gates all read it. Call sites
// pass a name alone, and no consumer guesses a unit or a direction from a
// name suffix.

// Kind is what a metric is registered as.
type Kind uint8

// The kinds, one per registering method: Recorder.Counter,
// Recorder.Histogram and Recorder.Quality. Zero is run_info's, the one
// family the /metrics exposition adds itself.
const (
	KindCounter Kind = iota + 1
	KindHistogram
	KindQuality
)

// The better directions, spelled as the manifest's quality_timeline[].better
// spells them. Lower (Δ, degree errors, durations) and Higher (bound
// headroom, task utilities, matching weight) gate; Info is tracked but
// never gated: counts, bounds, rates and shapes that move with the input.
const (
	Lower  = "lower"
	Higher = "higher"
	Info   = "info"
)

// Metric is one metric's declaration.
type Metric struct {
	Kind Kind
	// Unit is "ns" for durations, "bytes", "micros" for a quantity scaled
	// by 1e6 to fit an int64 histogram, "edges" for degree and edge
	// quantities, or "" for a count or a ratio. obsreport diff gates a
	// histogram only in "ns".
	Unit   string
	Better string // Lower, Higher or Info
	Help   string // the /metrics HELP text
}

// declared is the declaration table, keyed by the name call sites register.
// Counters are all Info: obsreport diff reports count deltas, which are
// semantic, without gating them.
var declared = map[string]Metric{
	"betweenness.mapped_bytes":   {KindCounter, "bytes", Info, "Betweenness sigma/delta row and crossing-mask bytes mapped outside the Go heap."},
	"betweenness.sources_done":   {KindCounter, "", Info, "Brandes/MS-BFS betweenness source vertices completed."},
	"bfs.sources_done":           {KindCounter, "", Info, "Distance-profile BFS source vertices completed."},
	"bm2.avg_dis":                {KindQuality, "edges", Lower, "BM2 achieved average degree discrepancy per node."},
	"bm2.bound.theorem2":         {KindQuality, "edges", Info, "Theorem 2 bound on BM2 average discrepancy per node."},
	"bm2.delta":                  {KindQuality, "edges", Lower, "BM2 final objective Δ (total degree discrepancy)."},
	"bm2.gain_micros":            {KindHistogram, "micros", Info, "Per-pop BM2 Phase 2 gain, in micro-units."},
	"bm2.headroom.theorem2":      {KindQuality, "edges", Higher, "Theorem 2 bound minus achieved BM2 discrepancy (higher is better)."},
	"bm2.kept_edges":             {KindQuality, "edges", Info, "Edges kept by the BM2 reduction."},
	"bm2.kept_fraction":          {KindQuality, "", Info, "Fraction of input edges kept by the BM2 reduction."},
	"bm2.matching_weight":        {KindQuality, "", Higher, "Cumulative BM2 Phase 2 matching weight popped so far."},
	"brandes.edge_folds":         {KindCounter, "", Info, "Edge-dependency fold operations in batched Brandes."},
	"claims.checked":             {KindCounter, "", Info, "Paper claims checked."},
	"claims.failed":              {KindCounter, "", Info, "Paper claims that failed verification."},
	"closeness.sources_done":     {KindCounter, "", Info, "Closeness centrality source vertices completed."},
	"crr.accept_rate":            {KindQuality, "", Info, "CRR Phase 2 swap acceptance rate over the last flush window."},
	"crr.avg_dis":                {KindQuality, "edges", Lower, "CRR achieved average degree discrepancy per node."},
	"crr.bound.theorem1":         {KindQuality, "edges", Info, "Theorem 1 bound on CRR average discrepancy per node."},
	"crr.deg_err_linf":           {KindQuality, "edges", Lower, "Maximum per-node degree discrepancy (L∞) at the last flush."},
	"crr.delta":                  {KindQuality, "edges", Lower, "CRR Phase 2 objective Δ (total degree discrepancy), live trajectory."},
	"crr.delta_abs_micros":       {KindHistogram, "micros", Info, "Absolute CRR deltaChange per rewiring attempt, in micro-units."},
	"crr.headroom.theorem1":      {KindQuality, "edges", Higher, "Theorem 1 bound minus achieved CRR discrepancy (higher is better)."},
	"crr.kept_edges":             {KindQuality, "edges", Info, "Edges kept by the CRR reduction."},
	"crr.kept_fraction":          {KindQuality, "", Info, "Fraction of input edges kept by the CRR reduction."},
	"crr.rewire.accepted":        {KindCounter, "", Info, "CRR Phase 2 rewiring attempts accepted."},
	"crr.rewire.attempts":        {KindCounter, "", Info, "CRR Phase 2 rewiring attempts examined."},
	"crr.sweep.ratio_ns":         {KindHistogram, "ns", Lower, "Wall time per CRR sweep ratio, in nanoseconds."},
	"flatpq.pops":                {KindCounter, "", Info, "Flat priority-queue pop operations."},
	"flatpq.pushes":              {KindCounter, "", Info, "Flat priority-queue push operations."},
	"flatpq.removes":             {KindCounter, "", Info, "Flat priority-queue remove operations."},
	"flatpq.updates":             {KindCounter, "", Info, "Flat priority-queue update operations."},
	"ingest.bytes":               {KindCounter, "bytes", Info, "Input bytes ingested."},
	"ingest.edges":               {KindCounter, "", Info, "Edges ingested."},
	"ingest.lines":               {KindCounter, "", Info, "Input lines ingested."},
	"msbfs.batch_ns":             {KindHistogram, "ns", Lower, "Wall time per MS-BFS source batch, in nanoseconds."},
	"msbfs.batch_occupancy":      {KindHistogram, "", Info, "Source bits carried per MS-BFS batch."},
	"msbfs.batches_done":         {KindCounter, "", Info, "MS-BFS source batches traversed."},
	"msbfs.bottomup_levels":      {KindCounter, "", Info, "MS-BFS levels expanded bottom-up."},
	"msbfs.direction_switches":   {KindCounter, "", Info, "MS-BFS direction-optimizing switches."},
	"msbfs.level_width":          {KindHistogram, "", Info, "Nodes first reached per MS-BFS level."},
	"msbfs.topdown_levels":       {KindCounter, "", Info, "MS-BFS levels expanded top-down."},
	"msbfs.words_scanned":        {KindCounter, "", Info, "MS-BFS adjacency slots scanned."},
	"pack.bytes.out":             {KindCounter, "bytes", Info, "Packed CSR bytes written."},
	"pack.spill.chunks":          {KindCounter, "", Info, "External-sort spill chunks written."},
	"pack.spill.keys":            {KindCounter, "", Info, "External-sort keys spilled."},
	"pagerank.iterations":        {KindCounter, "", Info, "PageRank power iterations."},
	"run_info":                   {0, "", Info, "Constant 1, labeled with the observed command."},
	"stream.deletes":             {KindCounter, "", Info, "Streaming edge deletions applied."},
	"stream.epoch.delta":         {KindQuality, "edges", Lower, "Stream shedder objective Δ at the last insert epoch."},
	"stream.epoch.kept_fraction": {KindQuality, "", Info, "Fraction of seen edges kept at the last insert epoch."},
	"stream.epoch.swap_rate":     {KindQuality, "", Info, "Reservoir swaps accepted per insert over the last epoch."},
	"stream.inserts":             {KindCounter, "", Info, "Streaming edge insertions applied."},
	"stream.novel_kept":          {KindCounter, "", Info, "Streaming novel edges kept."},
	"stream.swaps_accepted":      {KindCounter, "", Info, "Streaming reservoir swaps accepted."},
	// One row per tasks.Suite task, recorded as "suite.<task>".
	"suite.betweenness centrality":       {KindQuality, "", Lower, "Suite betweenness task error: relative L1 gap of mean betweenness per degree (lower is better)."},
	"suite.clustering coefficient":       {KindQuality, "", Lower, "Suite clustering task error: mean gap of clustering coefficient per degree (lower is better)."},
	"suite.hop-plot":                     {KindQuality, "", Lower, "Suite hop-plot task error: mean gap between the two hop-plots (lower is better)."},
	"suite.link prediction (label prop)": {KindQuality, "", Higher, "Suite link-prediction utility with label-propagation communities (higher is better)."},
	"suite.link prediction (node2vec)":   {KindQuality, "", Higher, "Suite link-prediction utility with node2vec embeddings (higher is better)."},
	"suite.shortest-path distance":       {KindQuality, "", Lower, "Suite shortest-path task error: TVD of the distance distributions (lower is better)."},
	"suite.top-10% query":                {KindQuality, "", Higher, "Suite top-10% PageRank query utility: overlap of the top vertex sets (higher is better)."},
	"suite.vertex degree":                {KindQuality, "", Lower, "Suite vertex degree task error: TVD of the degree distributions (lower is better)."},
}

// Describe returns name's declaration. An undeclared name reads as an Info
// metric of zero Kind with a generic help line, so every /metrics family
// still carries HELP and nothing undeclared ever gates.
func Describe(name string) Metric {
	if m, ok := declared[name]; ok {
		return m
	}
	return Metric{Better: Info, Help: "edgeshed metric " + name + "."}
}
