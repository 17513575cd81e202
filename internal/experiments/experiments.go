// Package experiments implements the reproduction experiment suite E1–E22
// described in DESIGN.md: for every figure and performance-relevant claim of
// the paper it regenerates a table (message counts, work counts, ablation
// factors, scaling shape). cmd/experiments prints all tables; EXPERIMENTS.md
// records one run together with the expectations derived from the paper.
package experiments

import (
	"fmt"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// Scale configures the experiment workload sizes (cmd/experiments' flag
// defaults, scale 12 × edge factor 8, are the EXPERIMENTS.md configuration).
type Scale struct {
	RMATScale  int // 2^scale vertices
	EdgeFactor int
	Seed       uint64
}

// Experiment is one runnable experiment. Records, where set, returns the
// experiment's measurements as JSON-encodable records: the matrices that
// `experiments -json` writes and benchcheck embeds and gates.
type Experiment struct {
	ID      string
	Title   string
	Run     func(sc Scale) []*harness.Table
	Records func(sc Scale) any
}

// All returns the experiment registry in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Fig. 1 — fixed-point vs Δ-stepping SSSP", E1Strategies, nil},
		{"E2", "Fig. 6 / §IV-A — merge optimization", E2Merge, nil},
		{"E3", "Fig. 3 — CC parallel search pacing", E3CCPacing, nil},
		{"E4", "Fig. 5 — gather planner: naive DFS vs direct", E4Planner, nil},
		{"E5", "§IV — message coalescing", E5Coalescing, nil},
		{"E6", "§IV — caching/reduction layer", E6Reduction, nil},
		{"E7", "§I — strong scaling over ranks × threads", E7Scaling, nil},
		{"E8", "§III-D/§IV — termination detection", E8Termination, nil},
		{"E9", "§I — abstraction overhead vs hand-written AM++", E9Abstraction, nil},
		{"E10", "Fig. 6 — subexpression folding payload", E10Folding, nil},
		{"E11", "§II-B — pointer jumping (two-hop gather)", E11PointerJump, nil},
		{"E12", "§II-A — Δ-stepping light/heavy split (early exit)", E12LightHeavy, nil},
		{"E13", "§III-A — PageRank push (out_edges) vs pull (in_edges)", E13PushPull, nil},
		{"E15", "§VI — expressiveness: the pattern-based algorithm suite", E15Expressiveness, nil},
		{"E16", "robustness — fault overhead vs drop rate (reliable transport)", E16Chaos, nil},
		{"E17", "observability — sharded counters, timing, and tracing overhead", E17Observability, nil},
		{"E19", "observability — causal lineage: critical paths, chain depth, overhead", E19Lineage, nil},
		{"E20", "performance — wire codec: bytes & allocations of the reliable transport, checked against the trusted run", E20Codec, records(E20CodecRecords)},
		{"E21", "robustness — transport seam: chan vs unix vs tcp loopback, faulted links", E21Transport, records(E21TransportRecords)},
		{"E22", "observability — phase-timer overhead: telemetry plane off vs on", E22PhaseTimers, records(E22ObsRecords)},
	}
}

// records adapts a typed record function to Experiment.Records.
func records[T any](f func(Scale) []T) func(Scale) any {
	return func(sc Scale) any { return f(sc) }
}

// PaperPlan is the shipped planner configuration with Direct, Filter and
// Coalesce pinned off. The paper's ranks are separate machines, where every
// hop of a plan is a message and fixed_point re-runs a vertex once per change;
// on this repository's in-process transport the shipped default applies
// single-word hops in place instead (DESIGN.md, "Co-resident direct
// application"), on every other transport it declines to send a relaxation
// that cannot win ("Send-side filter"), and everywhere it mails a re-run only
// when none is waiting ("Coalesced re-invocation") — each removes most of the
// traffic the experiments exist to count. Every experiment that reports
// message counts, or measures the message plane itself (coalescing,
// detectors, codecs, transports, faults, telemetry), therefore runs
// PaperPlan; E7 and E9 time the engine as shipped, E2b shows each toggle, and
// E6 and E21 carry as-shipped rows beside the paper's.
func PaperPlan() pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	o.Direct, o.Filter, o.Coalesce = false, false, false
	return o
}

// workload builds the standard weighted RMAT edge list.
func workload(sc Scale) (n int, edges []distgraph.Edge) {
	return gen.RMAT(sc.RMATScale, sc.EdgeFactor, gen.Weights{Min: 1, Max: 100}, sc.Seed)
}

// env bundles a universe + engine over the standard workload.
type env struct {
	u     *am.Universe
	g     *distgraph.Graph
	eng   *pattern.Engine
	lm    *pmap.LockMap
	n     int
	edges []distgraph.Edge
}

func newEnv(u *am.Universe, n int, edges []distgraph.Edge, gopts distgraph.Options, popts pattern.PlanOptions) *env {
	d := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(d, edges, gopts)
	lm := pmap.NewLockMap(d, 1)
	return &env{
		u: u, g: g, lm: lm, n: n, edges: edges,
		eng: pattern.NewEngine(u, g, lm, popts),
	}
}

// checkSSSP counts vertices whose distance differs from Dijkstra's answer.
func checkSSSP(got []int64, n int, edges []distgraph.Edge, src distgraph.Vertex) int {
	return algorithms.CountWrong(got, seq.Dijkstra(n, edges, src))
}

// checkBFS counts vertices whose level differs from the sequential BFS's.
func checkBFS(got []int64, n int, edges []distgraph.Edge, src distgraph.Vertex) int {
	return algorithms.CountWrong(got, seq.BFS(n, edges, src))
}

// invariantViolations counts edges violating the SSSP invariant
// dist[trg] <= dist[src] + w on the computed labels.
func invariantViolations(got []int64, edges []distgraph.Edge) int {
	bad := 0
	for _, e := range edges {
		if got[e.Src] != pattern.Inf && got[e.Src]+e.W < got[e.Dst] {
			bad++
		}
	}
	return bad
}

// defaultGOpts returns the directed-graph build options used by the SSSP
// experiments.
func defaultGOpts() distgraph.Options { return distgraph.Options{} }

// buildGraph builds a block-distributed graph sized to u's rank count.
func buildGraph(u *am.Universe, n int, edges []distgraph.Edge, gopts distgraph.Options) *distgraph.Graph {
	return distgraph.Build(distgraph.NewBlockDist(n, u.Ranks()), edges, gopts)
}

func itoa(n int) string { return fmt.Sprint(n) }
