// Package declpat is a Go implementation of "Declarative Patterns for
// Imperative Distributed Graph Algorithms" (Zalewski, Edmonds, Lumsdaine,
// IPDPS Workshops 2015): graph algorithms are written as declarative
// patterns — property-map declarations plus actions made of a generator and
// condition-guarded modifications — whose communication is derived
// automatically, and driven by imperative strategies (fixed_point, once,
// Δ-stepping) running in epochs over an AM++-style active-message substrate.
//
// This package is the public facade: it re-exports the names callers use of
// the internal packages, and the whole pattern language (ExampleNewPattern
// uses every generator, locality and combinator). A minimal SSSP looks like:
//
//	u := declpat.New(4, declpat.WithThreads(2))
//	dist := declpat.NewBlockDist(n, 4)
//	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
//	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
//	sssp := declpat.NewSSSP(eng)
//	u.Run(func(r *declpat.Rank) { sssp.Run(r, src) })
//	distances := sssp.Dist.Gather()
//
// Each alias's doc names the internal declaration it mirrors; that
// declaration's doc is the contract. See DESIGN.md for how the system works
// and EXPERIMENTS.md for the reproduced experiments.
package declpat

import (
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/mp"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/query"
	"declpat/internal/strategy"
)

// Messaging substrate (internal/am).
type (
	// Universe mirrors am.Universe.
	Universe = am.Universe
	// FaultPlan mirrors am.FaultPlan.
	FaultPlan = am.FaultPlan
	// Rank mirrors am.Rank.
	Rank = am.Rank
	// EpochHandle mirrors am.Epoch.
	EpochHandle = am.Epoch
	// SockOptions mirrors am.SockOptions.
	SockOptions = am.SockOptions
	// Option mirrors am.Option.
	Option = am.Option
)

// SockTransport mirrors am.SockTransport.
var SockTransport = am.SockTransport

// Universe construction options, each mirroring the same-named am function.
var (
	WithThreads   = am.WithThreads
	WithCoalesce  = am.WithCoalesce
	WithFaultPlan = am.WithFaultPlan
	WithTiming    = am.WithTiming
	WithTransport = am.WithTransport
)

// New mirrors am.New, the only constructor of a Universe.
func New(ranks int, opts ...Option) *Universe { return am.New(ranks, opts...) }

// Active-message types and wire codecs (internal/am).
type (
	// MsgType mirrors am.MsgType.
	MsgType[T any] = am.MsgType[T]
	// Codec mirrors am.Codec.
	Codec[T any] = am.Codec[T]
)

// MsgOption configures a message type at registration.
type MsgOption[T any] func(*MsgType[T])

// WithCodec applies am.MsgType.WithCodec at registration: it chooses the
// codec the type's envelopes are encoded with where they cross a link.
func WithCodec[T any](c Codec[T]) MsgOption[T] {
	return func(t *MsgType[T]) { t.WithCodec(c) }
}

// WithWire applies am.MsgType.WithWire at registration: it chooses the fixed
// codec, which a universe that is not trusted already equips for a
// fixed-layout T.
func WithWire[T any]() MsgOption[T] {
	return func(t *MsgType[T]) { t.WithWire() }
}

// WithAddresser applies am.MsgType.WithAddresser at registration.
func WithAddresser[T any](f func(m T) int) MsgOption[T] {
	return func(t *MsgType[T]) { t.WithAddresser(f) }
}

// RegisterMsgType is am.Register followed by opts; call before Universe.Run.
//
//	pings := declpat.RegisterMsgType(u, "ping", handlePing, declpat.WithAddresser(pingOwner))
func RegisterMsgType[T any](u *Universe, name string, handler func(r *Rank, m T), opts ...MsgOption[T]) *MsgType[T] {
	mt := am.Register(u, name, handler)
	for _, opt := range opts {
		opt(mt)
	}
	return mt
}

// FixedCodec mirrors am.FixedCodec.
func FixedCodec[T any]() (Codec[T], error) { return am.FixedCodec[T]() }

// HasFixedLayout mirrors am.HasFixedLayout.
func HasFixedLayout[T any]() bool { return am.HasFixedLayout[T]() }

// Distributed graph (internal/distgraph).
type (
	// Vertex mirrors distgraph.Vertex.
	Vertex = distgraph.Vertex
	// Edge mirrors distgraph.Edge.
	Edge = distgraph.Edge
	// Graph mirrors distgraph.Graph.
	Graph = distgraph.Graph
	// GraphOptions mirrors distgraph.Options.
	GraphOptions = distgraph.Options
	// Distribution mirrors distgraph.Distribution.
	Distribution = distgraph.Distribution
)

// NewBlockDist mirrors distgraph.NewBlockDist.
func NewBlockDist(n, ranks int) Distribution { return distgraph.NewBlockDist(n, ranks) }

// NewCyclicDist mirrors distgraph.NewCyclicDist.
func NewCyclicDist(n, ranks int) Distribution { return distgraph.NewCyclicDist(n, ranks) }

// BuildGraph mirrors distgraph.Build.
func BuildGraph(d Distribution, edges []Edge, opts GraphOptions) *Graph {
	return distgraph.Build(d, edges, opts)
}

// Property maps (internal/pmap).
type (
	// VertexWordMap mirrors pmap.VertexWord.
	VertexWordMap = pmap.VertexWord
	// EdgeWordMap mirrors pmap.EdgeWord.
	EdgeWordMap = pmap.EdgeWord
	// VertexSetMap mirrors pmap.VertexSet.
	VertexSetMap = pmap.VertexSet
	// LockMap mirrors pmap.LockMap.
	LockMap = pmap.LockMap
)

// NewVertexWordMap mirrors pmap.NewVertexWord.
func NewVertexWordMap(d Distribution, init int64) *VertexWordMap { return pmap.NewVertexWord(d, init) }

// WeightMap mirrors pmap.WeightMap.
func WeightMap(g *Graph) *EdgeWordMap { return pmap.WeightMap(g) }

// NewVertexSetMap mirrors pmap.NewVertexSet.
func NewVertexSetMap(d Distribution, locks *LockMap) *VertexSetMap {
	return pmap.NewVertexSet(d, locks)
}

// NewLockMap mirrors pmap.NewLockMap.
func NewLockMap(d Distribution, granularity int) *LockMap { return pmap.NewLockMap(d, granularity) }

// The pattern language (internal/pattern).
type (
	// Pattern mirrors pattern.Pattern.
	Pattern = pattern.Pattern
	// PatternProp mirrors pattern.Prop.
	PatternProp = pattern.Prop
	// PatternAction mirrors pattern.Action.
	PatternAction = pattern.Action
	// Expr mirrors pattern.Expr.
	Expr = pattern.Expr
	// Generator mirrors pattern.Generator.
	Generator = pattern.Generator
	// PlanOptions mirrors pattern.PlanOptions.
	PlanOptions = pattern.PlanOptions
	// Engine mirrors pattern.Engine.
	Engine = pattern.Engine
	// Bindings mirrors pattern.Bindings.
	Bindings = pattern.Bindings
	// BoundAction mirrors pattern.BoundAction.
	BoundAction = pattern.BoundAction
)

// Word-level constants, mirroring pattern.Inf and pattern.NilWord.
const (
	Inf     = pattern.Inf
	NilWord = pattern.NilWord
)

// NewPattern mirrors pattern.New.
func NewPattern(name string) *Pattern { return pattern.New(name) }

// DefaultPlanOptions mirrors pattern.DefaultPlanOptions: the paper's
// optimizations plus Direct, Filter and Coalesce (set those three to false to
// reproduce the paper's message counts).
func DefaultPlanOptions() PlanOptions { return pattern.DefaultPlanOptions() }

// NewEngine mirrors pattern.NewEngine; call before Universe.Run.
func NewEngine(u *Universe, g *Graph, lm *LockMap, opts PlanOptions) *Engine {
	return pattern.NewEngine(u, g, lm, opts)
}

// Generators, mirroring pattern.None, OutEdges, InEdges, Adj and SetOf.
var (
	GenNone     = pattern.None
	GenOutEdges = pattern.OutEdges
	GenInEdges  = pattern.InEdges
	GenAdj      = pattern.Adj
	GenSetOf    = pattern.SetOf
)

// Locality designators (Def. 1), mirroring pattern.V, U, Trg, Src and E.
var (
	AtV   = pattern.V
	AtU   = pattern.U
	AtTrg = pattern.Trg
	AtSrc = pattern.Src
	AtE   = pattern.E
)

// Expression combinators, mirroring the same-named pattern functions (Min and
// Max mirror pattern.MinE and pattern.MaxE).
var (
	C   = pattern.C
	Vtx = pattern.Vtx
	Add = pattern.Add
	Sub = pattern.Sub
	Mul = pattern.Mul
	Min = pattern.MinE
	Max = pattern.MaxE
	Lt  = pattern.Lt
	Le  = pattern.Le
	Gt  = pattern.Gt
	Ge  = pattern.Ge
	Eq  = pattern.Eq
	Ne  = pattern.Ne
	And = pattern.And
	Or  = pattern.Or
	Not = pattern.Not
)

// Strategies (internal/strategy).
type (
	// FixedPointStrategy mirrors strategy.FixedPoint.
	FixedPointStrategy = strategy.FixedPoint
	// DeltaStrategy mirrors strategy.Delta.
	DeltaStrategy = strategy.Delta
)

// NewFixedPoint mirrors strategy.NewFixedPoint; call before Run.
func NewFixedPoint(a *BoundAction) *FixedPointStrategy { return strategy.NewFixedPoint(a) }

// NewDelta mirrors strategy.NewDelta; call before Run.
func NewDelta(u *Universe, a, heavy *BoundAction, keys *VertexWordMap, delta int64, threads int) *DeltaStrategy {
	return strategy.NewDelta(u, a, heavy, keys, delta, threads)
}

// Once mirrors strategy.Once. Collective.
func Once(r *Rank, a *BoundAction, vs []Vertex) bool { return strategy.Once(r, a, vs) }

// Algorithms (internal/algorithms).
type (
	// SSSP mirrors algorithms.SSSP.
	SSSP = algorithms.SSSP
	// CC mirrors algorithms.CC.
	CC = algorithms.CC
	// BFS mirrors algorithms.BFS.
	BFS = algorithms.BFS
	// BFSTree mirrors algorithms.BFSTree.
	BFSTree = algorithms.BFSTree
	// Widest mirrors algorithms.Widest.
	Widest = algorithms.Widest
	// PageRank mirrors algorithms.PageRank.
	PageRank = algorithms.PageRank
	// PageRankMode mirrors algorithms.PageRankMode.
	PageRankMode = algorithms.PageRankMode
	// KCore mirrors algorithms.KCore.
	KCore = algorithms.KCore
	// DegreeCount mirrors algorithms.DegreeCount.
	DegreeCount = algorithms.DegreeCount
	// MIS mirrors algorithms.MIS.
	MIS = algorithms.MIS
	// Betweenness mirrors algorithms.Betweenness.
	Betweenness = algorithms.Betweenness
)

// PageRank modes, mirroring algorithms.PageRankPush and PageRankPull.
const (
	PageRankPush = algorithms.PageRankPush
	PageRankPull = algorithms.PageRankPull
)

// PRScaleConst mirrors algorithms.PRScale.
const PRScaleConst = algorithms.PRScale

// NewSSSP mirrors algorithms.NewSSSP; call before Universe.Run.
func NewSSSP(eng *Engine) *SSSP { return algorithms.NewSSSP(eng) }

// NewCC mirrors algorithms.NewCC; the graph must be symmetrized.
func NewCC(eng *Engine, lm *LockMap) *CC { return algorithms.NewCC(eng, lm) }

// NewBFS mirrors algorithms.NewBFS; call before Universe.Run.
func NewBFS(eng *Engine) *BFS { return algorithms.NewBFS(eng) }

// NewBFSTree mirrors algorithms.NewBFSTree; call before Universe.Run.
func NewBFSTree(eng *Engine) *BFSTree { return algorithms.NewBFSTree(eng) }

// NewWidest mirrors algorithms.NewWidest; call before Universe.Run.
func NewWidest(eng *Engine) *Widest { return algorithms.NewWidest(eng) }

// NewPageRank mirrors algorithms.NewPageRank (pull mode needs a
// bidirectional graph); call before Universe.Run.
func NewPageRank(eng *Engine, mode PageRankMode) *PageRank { return algorithms.NewPageRank(eng, mode) }

// NewKCore mirrors algorithms.NewKCore; the graph must be symmetrized.
func NewKCore(eng *Engine, k int64) *KCore { return algorithms.NewKCore(eng, k) }

// NewDegreeCount mirrors algorithms.NewDegreeCount; call before Universe.Run.
func NewDegreeCount(eng *Engine) *DegreeCount { return algorithms.NewDegreeCount(eng) }

// NewMIS mirrors algorithms.NewMIS; the graph must be symmetrized.
func NewMIS(eng *Engine) *MIS { return algorithms.NewMIS(eng) }

// NewBetweenness mirrors algorithms.NewBetweenness; the graph must be
// bidirectional.
func NewBetweenness(eng *Engine) *Betweenness { return algorithms.NewBetweenness(eng) }

// SSSPPattern mirrors algorithms.SSSPPattern (the paper's Fig. 2).
func SSSPPattern() *Pattern { return algorithms.SSSPPattern() }

// LocalVertices mirrors algorithms.LocalVertices.
func LocalVertices(g *Graph, r *Rank) []Vertex { return algorithms.LocalVertices(g, r) }

// Graph generators (internal/gen).
type (
	// WeightSpec mirrors gen.Weights.
	WeightSpec = gen.Weights
	// GraphStats mirrors gen.GraphStats.
	GraphStats = gen.GraphStats
)

// RMAT mirrors gen.RMAT.
func RMAT(scale, edgeFactor int, w WeightSpec, seed uint64) (n int, edges []Edge) {
	return gen.RMAT(scale, edgeFactor, w, seed)
}

// Torus2D mirrors gen.Torus2D.
func Torus2D(rows, cols int, w WeightSpec, seed uint64) (n int, edges []Edge) {
	return gen.Torus2D(rows, cols, w, seed)
}

// PathGraph mirrors gen.Path.
func PathGraph(n int, w WeightSpec, seed uint64) []Edge { return gen.Path(n, w, seed) }

// SmallWorld mirrors gen.SmallWorld.
func SmallWorld(n, k int, beta float64, w WeightSpec, seed uint64) []Edge {
	return gen.SmallWorld(n, k, beta, w, seed)
}

// StatsOf mirrors gen.Stats.
func StatsOf(n int, edges []Edge) GraphStats { return gen.Stats(n, edges) }

// Telemetry (internal/obs, internal/am, internal/harness).
type (
	// Metrics mirrors am.Metrics.
	Metrics = am.Metrics
	// HistSnapshot mirrors obs.HistSnapshot.
	HistSnapshot = obs.HistSnapshot
	// Phase mirrors obs.Phase, the argument of Rank.Phase.
	Phase = obs.Phase
	// Sampler mirrors obs.Sampler.
	Sampler = obs.Sampler
	// DebugServer mirrors harness.DebugServer.
	DebugServer = harness.DebugServer
)

// Epoch phases, mirroring the same-named obs constants.
const (
	PhaseCollect  = obs.PhaseCollect
	PhaseBuildCSR = obs.PhaseBuildCSR
	PhaseKernel   = obs.PhaseKernel
	PhaseEmit     = obs.PhaseEmit
	PhaseBarrier  = obs.PhaseBarrier
)

// NewSampler mirrors obs.NewSampler; Universe.CounterSeries is the usual
// source.
func NewSampler(size int, src func() map[string]int64) *Sampler { return obs.NewSampler(size, src) }

// NewDebugServer mirrors harness.NewDebugServer; the caller owns shutdown.
func NewDebugServer(addr string) (*DebugServer, error) { return harness.NewDebugServer(addr) }

// Launched jobs (internal/mp).
type (
	// MPJobSpec mirrors mp.JobSpec.
	MPJobSpec = mp.JobSpec
	// MPLaunchSpec mirrors mp.LaunchSpec.
	MPLaunchSpec = mp.LaunchSpec
	// MPLaunchResult mirrors mp.LaunchResult.
	MPLaunchResult = mp.LaunchResult
)

// CheckSizes mirrors mp.CheckSizes.
func CheckSizes(scale, edgeFactor, ranks, threads int) error {
	return mp.CheckSizes(scale, edgeFactor, ranks, threads)
}

// Launch mirrors mp.Launch.
func Launch(spec MPLaunchSpec) (*MPLaunchResult, error) { return mp.Launch(spec) }

// MaybeWorker mirrors mp.MaybeWorker. Launch spawns the calling executable as
// every fleet worker, so a program that launches fleets calls it first thing
// in main.
func MaybeWorker() { mp.MaybeWorker() }

// Query plane (internal/query).
type (
	// QueryService mirrors query.Service.
	QueryService = query.Service
	// QueryRequest mirrors query.Request.
	QueryRequest = query.Request
	// QueryResult mirrors query.Result.
	QueryResult = query.Result
	// QueryStatus mirrors query.Status.
	QueryStatus = query.Status
	// QueryAlgo mirrors query.Algo.
	QueryAlgo = query.Algo
	// QueryOption mirrors query.Option.
	QueryOption = query.Option
)

// Served algorithms, mirroring query.BFS, SSSP and PageRank.
const (
	QueryBFS      = query.BFS
	QuerySSSP     = query.SSSP
	QueryPageRank = query.PageRank
)

// Query lifecycle states, mirroring the same-named query constants.
const (
	QueryStateQueued  = query.StateQueued
	QueryStateRunning = query.StateRunning
	QueryStateDone    = query.StateDone
	QueryStateFailed  = query.StateFailed
)

// Query-plane errors, mirroring the same-named query errors.
var (
	ErrQueryQueueFull = query.ErrQueueFull
	ErrQueryBadSource = query.ErrBadSource
	ErrQueryStopped   = query.ErrStopped
	ErrQueryUnknown   = query.ErrUnknown
	ErrQueryNotDone   = query.ErrNotDone
)

// QueryService options, mirroring the same-named query functions.
var (
	WithQueueDepth      = query.WithQueueDepth
	WithDefaultDeadline = query.WithDefaultDeadline
	WithRetain          = query.WithRetain
)

// NewQueryService mirrors query.New; call before Universe.Run, then drive the
// universe with QueryService.Serve.
func NewQueryService(eng *Engine, opts ...QueryOption) *QueryService { return query.New(eng, opts...) }

// ParseQueryAlgo mirrors query.ParseAlgo.
func ParseQueryAlgo(s string) (QueryAlgo, error) { return query.ParseAlgo(s) }
