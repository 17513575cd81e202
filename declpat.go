// Package declpat is a Go implementation of "Declarative Patterns for
// Imperative Distributed Graph Algorithms" (Zalewski, Edmonds, Lumsdaine,
// IPDPS Workshops 2015): graph algorithms are written as declarative
// patterns — property-map declarations plus actions made of a generator and
// condition-guarded modifications — whose communication is derived
// automatically, and driven by imperative strategies (fixed_point, once,
// Δ-stepping) running in epochs over an AM++-style active-message substrate.
//
// This package is the public facade: it re-exports the user-facing surface
// of the internal packages. A minimal SSSP looks like:
//
//	u := declpat.New(4, declpat.WithThreads(2))
//	dist := declpat.NewBlockDist(n, 4)
//	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
//	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
//	sssp := declpat.NewSSSP(eng)
//	u.Run(func(r *declpat.Rank) { sssp.Run(r, src) })
//	distances := sssp.Dist.Gather()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced experiments.
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
	// Universe is a simulated distributed machine of message-connected
	// ranks.
	Universe = am.Universe
	// FaultPlan injects seeded transport faults (drop, duplication,
	// delay/reordering, corruption) and switches the universe onto the
	// ack/retransmit reliable-delivery protocol.
	FaultPlan = am.FaultPlan
	// Crash schedules a deterministic crash-stop rank failure (at epoch
	// entry, or after the k-th handled message).
	Crash = am.Crash
	// DeadLink permanently severs one directed link from a given epoch on.
	DeadLink = am.DeadLink
	// Checkpointer is rank-sharded state that snapshots to bytes at epoch
	// boundaries (SnapshotRank, deterministic) and restores from them
	// (RestoreRank, an error for bytes that do not fit); register with
	// Universe.RegisterCheckpointer to take part in Recovery rollback/replay
	// and multi-process restart, which restore from the same bytes.
	Checkpointer = am.Checkpointer
	// RankFault describes a contained rank failure (crash, handler panic,
	// dead link, watchdog) in Run errors and the fault log.
	RankFault = am.RankFault
	// FaultKind classifies a RankFault.
	FaultKind = am.FaultKind
	// Rank is one simulated node; SPMD bodies receive theirs from Run.
	Rank = am.Rank
	// EpochHandle is the in-epoch handle (Flush, TryFinish, AuxAdd).
	EpochHandle = am.Epoch
	// DetectorKind selects the termination-detection protocol.
	DetectorKind = am.DetectorKind
	// LineageMode controls causal message lineage (WithLineage).
	LineageMode = am.LineageMode
	// MessageStats is the universe-wide message accounting.
	MessageStats = am.Stats
	// Transport is the message-plane backend seam (WithTransport): the
	// in-process channel backend, or real sockets via SockTransport.
	Transport = am.Transport
	// SockOptions configures the socket transport: network (tcp/unix),
	// heartbeat and liveness deadlines, reconnect backoff, retransmit-clock
	// pacing, and socket-level fault injection.
	SockOptions = am.SockOptions
	// SockFaultPlan injects deterministic socket-level failures into a
	// socket transport: connection kills, one-way partitions, link flaps.
	SockFaultPlan = am.SockFaultPlan
	// SockDisconnect kills one directed link's connection after a frame
	// count (it reconnects and requeues).
	SockDisconnect = am.SockDisconnect
	// SockPartition black-holes one direction over a frame window with no
	// closing frame (heartbeats vanish; liveness and escalation fire).
	SockPartition = am.SockPartition
	// SockFlap kills a link every Period-th frame, Count times.
	SockFlap = am.SockFlap
)

// Termination detectors.
const (
	DetectorAtomic      = am.DetectorAtomic
	DetectorFourCounter = am.DetectorFourCounter
)

// Lineage modes (WithLineage): LineageAuto stamps causal lineage exactly
// when tracing is enabled; LineageOff disables it even in traced runs.
const (
	LineageAuto = am.LineageAuto
	LineageOff  = am.LineageOff
)

// Rank-fault kinds (RankFault.Kind).
const (
	FaultCrash        = am.FaultCrash
	FaultHandlerPanic = am.FaultHandlerPanic
	FaultLinkDead     = am.FaultLinkDead
	FaultWatchdog     = am.FaultWatchdog
	FaultTransport    = am.FaultTransport
)

// Transport constructors: ChanTransport is the in-process default;
// SockTransport runs the data plane over TCP or Unix-domain sockets with
// heartbeats, liveness deadlines, automatic reconnect, and escalation to
// checkpoint/restart when the reconnect budget is exhausted.
var (
	ChanTransport = am.ChanTransport
	SockTransport = am.SockTransport
)

// Option configures a Universe built with New, the only constructor.
type Option = am.Option

// Universe construction options (see the same-named functions of
// internal/am for the full semantics and default of each).
var (
	// WithThreads sets message-handler threads per rank.
	WithThreads = am.WithThreads
	// WithCoalesce sets the default coalescing factor.
	WithCoalesce = am.WithCoalesce
	// WithDetector selects the termination-detection protocol.
	WithDetector = am.WithDetector
	// WithFaultPlan enables reliable delivery and injects transport faults.
	WithFaultPlan = am.WithFaultPlan
	// WithRecovery enables epoch-granular checkpoint/restart.
	WithRecovery = am.WithRecovery
	// WithTraceCapacity enables event tracing: per-rank rings totalling the
	// given number of events, split evenly across ranks.
	WithTraceCapacity = am.WithTraceCapacity
	// WithLineage sets the causal-lineage mode.
	WithLineage = am.WithLineage
	// WithTiming enables latency histograms.
	WithTiming = am.WithTiming
	// WithTransport selects the message transport backend; a socket backend
	// always runs reliable delivery with jittered retransmit backoff.
	WithTransport = am.WithTransport
)

// New creates a simulated machine of `ranks` ranks configured by options:
//
//	u := declpat.New(4, declpat.WithThreads(2))
func New(ranks int, opts ...Option) *Universe { return am.New(ranks, opts...) }

// Active-message types and wire codecs (internal/am). These generic aliases
// expose the codec seam on the facade so downstream users never import
// internal packages.
type (
	// MsgType is a registered active-message type with payload T.
	MsgType[T any] = am.MsgType[T]
	// Codec serializes batches of one message type for the wire transport.
	// Implementations must be safe for concurrent use, must reject
	// malformed input from Decode with an error (never a panic), and — for
	// custom codecs — must keep Append(Decode(b)) bit-identical to b's
	// source batch.
	Codec[T any] = am.Codec[T]
)

// MsgOption configures a message type at registration.
type MsgOption[T any] func(*MsgType[T])

// WithCodec routes the message type through the wire transport with the
// given codec: batches are serialized, checksummed, accounted in
// Stats.WireBytes, and decoded on arrival.
func WithCodec[T any](c Codec[T]) MsgOption[T] {
	return func(t *MsgType[T]) { t.WithCodec(c) }
}

// WithWire routes the message type through the wire transport with the
// zero-reflection fixed word-schema codec. Registration panics, naming T,
// when T is not a fixed-layout type; give such a type a codec of its own
// (WithCodec).
func WithWire[T any]() MsgOption[T] {
	return func(t *MsgType[T]) { t.WithWire() }
}

// WithAddresser installs an object-based address function so Send can route
// from the payload itself.
func WithAddresser[T any](f func(m T) int) MsgOption[T] {
	return func(t *MsgType[T]) { t.WithAddresser(f) }
}

// RegisterMsgType declares a new active-message type on u. The handler runs
// on the destination rank, possibly concurrently on several handler threads.
// Must be called before Universe.Run.
//
//	pings := declpat.RegisterMsgType(u, "ping", handlePing, declpat.WithWire[Ping]())
func RegisterMsgType[T any](u *Universe, name string, handler func(r *Rank, m T), opts ...MsgOption[T]) *MsgType[T] {
	mt := am.Register(u, name, handler)
	for _, opt := range opts {
		opt(mt)
	}
	return mt
}

// FixedCodec constructs the zero-reflection fixed word-schema codec for T,
// or an error when T contains reference or complex components.
func FixedCodec[T any]() (Codec[T], error) { return am.FixedCodec[T]() }

// HasFixedLayout reports whether FixedCodec[T] would succeed.
func HasFixedLayout[T any]() bool { return am.HasFixedLayout[T]() }

// Distributed graph (internal/distgraph).
type (
	// Vertex is a global vertex id.
	Vertex = distgraph.Vertex
	// Edge is a weighted input edge.
	Edge = distgraph.Edge
	// EdgeRef identifies a stored edge copy.
	EdgeRef = distgraph.EdgeRef
	// Graph is a distributed CSR graph.
	Graph = distgraph.Graph
	// GraphOptions selects symmetrization and bidirectional storage.
	GraphOptions = distgraph.Options
	// Distribution maps vertices to owning ranks.
	Distribution = distgraph.Distribution
)

// NilVertex is the "no vertex" sentinel (the paper's NULL).
const NilVertex = distgraph.NilVertex

// NewBlockDist distributes n vertices in contiguous blocks over ranks.
func NewBlockDist(n, ranks int) Distribution { return distgraph.NewBlockDist(n, ranks) }

// NewCyclicDist distributes n vertices round-robin over ranks.
func NewCyclicDist(n, ranks int) Distribution { return distgraph.NewCyclicDist(n, ranks) }

// NewHashDist distributes n vertices by hashed blocks over ranks.
func NewHashDist(n, ranks int, seed uint64) Distribution {
	return distgraph.NewHashDist(n, ranks, seed)
}

// BuildGraph constructs a distributed graph from an edge list.
func BuildGraph(d Distribution, edges []Edge, opts GraphOptions) *Graph {
	return distgraph.Build(d, edges, opts)
}

// Property maps (internal/pmap).
type (
	// VertexWordMap is a word-valued distributed vertex property map.
	VertexWordMap = pmap.VertexWord
	// EdgeWordMap is a word-valued distributed edge property map.
	EdgeWordMap = pmap.EdgeWord
	// VertexSetMap is a set-of-vertices vertex property map.
	VertexSetMap = pmap.VertexSet
	// LockMap is the §IV-B lock-map abstraction.
	LockMap = pmap.LockMap
)

// NewVertexWordMap allocates a vertex word map with initial value init.
func NewVertexWordMap(d Distribution, init int64) *VertexWordMap { return pmap.NewVertexWord(d, init) }

// NewEdgeWordMap allocates an edge word map with initial value init.
func NewEdgeWordMap(g *Graph, init int64) *EdgeWordMap { return pmap.NewEdgeWord(g, init) }

// WeightMap views the graph's built-in weights as an edge property map.
func WeightMap(g *Graph) *EdgeWordMap { return pmap.WeightMap(g) }

// NewVertexSetMap allocates a set-valued vertex map synchronized by locks.
func NewVertexSetMap(d Distribution, locks *LockMap) *VertexSetMap {
	return pmap.NewVertexSet(d, locks)
}

// NewLockMap creates a lock map with the given vertices-per-lock
// granularity.
func NewLockMap(d Distribution, granularity int) *LockMap { return pmap.NewLockMap(d, granularity) }

// Patterns (internal/pattern).
type (
	// Pattern is a declarative graph-access pattern (§III).
	Pattern = pattern.Pattern
	// PatternProp is a property declaration inside a pattern.
	PatternProp = pattern.Prop
	// PatternAction is one action of a pattern.
	PatternAction = pattern.Action
	// Expr is a pattern expression.
	Expr = pattern.Expr
	// Generator selects an action's fan-out.
	Generator = pattern.Generator
	// PlanOptions toggles the §IV planning optimizations.
	PlanOptions = pattern.PlanOptions
	// Engine executes compiled patterns over a universe and graph.
	Engine = pattern.Engine
	// Bindings maps pattern property names to storage.
	Bindings = pattern.Bindings
	// BoundAction is an action bound to storage, ready to invoke.
	BoundAction = pattern.BoundAction
	// PlanInfo describes an action's compiled message plan.
	PlanInfo = pattern.PlanInfo
)

// Word-level constants.
const (
	// Inf is the conventional "unreached" value.
	Inf = pattern.Inf
	// NilWord encodes NULL vertices in word maps.
	NilWord = pattern.NilWord
)

// NewPattern creates an empty pattern.
func NewPattern(name string) *Pattern { return pattern.New(name) }

// DefaultPlanOptions returns the paper's configuration (merge, fold, early
// exit) plus Direct — single-word hops to a co-resident rank are applied in
// place instead of sent — Filter — a min/max relaxation that has to be sent is
// not, when this rank already offered the vertex a value at least as good in
// the same epoch — and Coalesce — fixed_point mails a re-run of a changed
// vertex only when none is waiting to start. Set all three to false to
// reproduce the paper's message counts.
func DefaultPlanOptions() PlanOptions { return pattern.DefaultPlanOptions() }

// NewEngine creates a pattern engine; call before Universe.Run.
func NewEngine(u *Universe, g *Graph, lm *LockMap, opts PlanOptions) *Engine {
	return pattern.NewEngine(u, g, lm, opts)
}

// Generator constructors.
var (
	// GenNone runs the action at the input vertex only.
	GenNone = pattern.None
	// GenOutEdges fans out over out-edges.
	GenOutEdges = pattern.OutEdges
	// GenInEdges fans out over in-edges.
	GenInEdges = pattern.InEdges
	// GenAdj fans out over out-neighbours.
	GenAdj = pattern.Adj
	// GenSetOf fans out over a set-valued property's members.
	GenSetOf = pattern.SetOf
)

// Locality designators (Def. 1).
var (
	// AtV designates the input vertex.
	AtV = pattern.V
	// AtU designates the generated vertex.
	AtU = pattern.U
	// AtTrg designates the generated edge's target.
	AtTrg = pattern.Trg
	// AtSrc designates the generated edge's source.
	AtSrc = pattern.Src
	// AtE designates the generated edge.
	AtE = pattern.E
)

// Expression combinators.
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
	// FixedPointStrategy reruns the action at dependent vertices until
	// global quiescence.
	FixedPointStrategy = strategy.FixedPoint
	// DeltaStrategy is bucketed Δ-stepping.
	DeltaStrategy = strategy.Delta
	// DeltaDistributedStrategy uses per-thread buckets and try_finish.
	DeltaDistributedStrategy = strategy.DeltaDistributed
	// Buckets is the thread-safe Δ-stepping bucket structure.
	Buckets = strategy.Buckets
)

// NewFixedPoint installs the rerun-on-dependency hook; call before Run.
func NewFixedPoint(a *BoundAction) *FixedPointStrategy { return strategy.NewFixedPoint(a) }

// NewDelta installs the bucket-insert hook; call before Run.
func NewDelta(u *Universe, a *BoundAction, keys *VertexWordMap, delta int64) *DeltaStrategy {
	return strategy.NewDelta(u, a, keys, delta)
}

// NewDeltaDistributed installs the per-thread bucket hook; call before Run.
func NewDeltaDistributed(u *Universe, a *BoundAction, keys *VertexWordMap, delta int64, threads int) *DeltaDistributedStrategy {
	return strategy.NewDeltaDistributed(u, a, keys, delta, threads)
}

// Once applies the action to a vertex set in one epoch and reports whether
// anything changed anywhere. Collective.
func Once(r *Rank, a *BoundAction, vs []Vertex) bool { return strategy.Once(r, a, vs) }

// Algorithms (internal/algorithms).
type (
	// SSSP is the pattern-based single-source shortest paths solver.
	SSSP = algorithms.SSSP
	// CC is the parallel-search connected-components solver.
	CC = algorithms.CC
	// BFS is the pattern-based breadth-first level solver.
	BFS = algorithms.BFS
	// BFSTree is the Graph500-style parent-tree BFS.
	BFSTree = algorithms.BFSTree
	// Widest is the pattern-based widest-path solver.
	Widest = algorithms.Widest
	// PageRank is the fixed-point PageRank solver (push or pull).
	PageRank = algorithms.PageRank
	// PageRankMode selects push (out-edges) or pull (in-edges).
	PageRankMode = algorithms.PageRankMode
	// KCore is the chained-action k-core peeler.
	KCore = algorithms.KCore
	// DegreeCount computes in-degrees by remote atomic adds.
	DegreeCount = algorithms.DegreeCount
	// MIS is the Luby-style maximal-independent-set solver.
	MIS = algorithms.MIS
	// Betweenness is the Brandes betweenness-centrality solver.
	Betweenness = algorithms.Betweenness
)

// PageRank modes.
const (
	PageRankPush = algorithms.PageRankPush
	PageRankPull = algorithms.PageRankPull
)

// PRScaleConst is the fixed-point scale of PageRank values.
const PRScaleConst = algorithms.PRScale

// NewSSSP binds the paper's SSSP pattern; call before Universe.Run.
func NewSSSP(eng *Engine) *SSSP { return algorithms.NewSSSP(eng) }

// NewCC binds the §II-B CC pattern; the graph must be symmetrized.
func NewCC(eng *Engine, lm *LockMap) *CC { return algorithms.NewCC(eng, lm) }

// NewBFS binds the BFS pattern; call before Universe.Run.
func NewBFS(eng *Engine) *BFS { return algorithms.NewBFS(eng) }

// NewBFSTree binds the parent-tree BFS pattern; call before Universe.Run.
func NewBFSTree(eng *Engine) *BFSTree { return algorithms.NewBFSTree(eng) }

// NewWidest binds the widest-path pattern; call before Universe.Run.
func NewWidest(eng *Engine) *Widest { return algorithms.NewWidest(eng) }

// NewPageRank binds a PageRank pattern (pull mode needs a bidirectional
// graph); call before Universe.Run.
func NewPageRank(eng *Engine, mode PageRankMode) *PageRank { return algorithms.NewPageRank(eng, mode) }

// NewKCore binds the k-core pattern over a symmetrized graph; call before
// Universe.Run.
func NewKCore(eng *Engine, k int64) *KCore { return algorithms.NewKCore(eng, k) }

// NewDegreeCount binds the degree pattern; call before Universe.Run.
func NewDegreeCount(eng *Engine) *DegreeCount { return algorithms.NewDegreeCount(eng) }

// NewMIS binds the MIS pattern over a symmetrized graph; call before
// Universe.Run.
func NewMIS(eng *Engine) *MIS { return algorithms.NewMIS(eng) }

// NewBetweenness binds the Brandes pattern over a bidirectional graph; call
// before Universe.Run.
func NewBetweenness(eng *Engine) *Betweenness { return algorithms.NewBetweenness(eng) }

// GenerateGo translates a pattern into standalone Go messaging code (the
// paper's §VI translator); see cmd/codegen.
func GenerateGo(p *Pattern, opts PlanOptions, pkg string) (string, error) {
	return pattern.GenerateGo(p, opts, pkg)
}

// BuildGraphParallel is BuildGraph with one construction worker per rank
// (identical layout, parallel build).
func BuildGraphParallel(d Distribution, edges []Edge, opts GraphOptions) *Graph {
	return distgraph.BuildParallel(d, edges, opts)
}

// GraphStats summarizes an edge list.
type GraphStats = gen.GraphStats

// StatsOf computes summary statistics of an edge list over n vertices.
func StatsOf(n int, edges []Edge) GraphStats { return gen.Stats(n, edges) }

// SmallWorld generates a Watts–Strogatz small-world graph.
func SmallWorld(n, k int, beta float64, w WeightSpec, seed uint64) []Edge {
	return gen.SmallWorld(n, k, beta, w, seed)
}

// SSSPPattern returns the paper's Fig. 2 pattern.
func SSSPPattern() *Pattern { return algorithms.SSSPPattern() }

// CCPattern returns the §II-B connected-components pattern.
func CCPattern() *Pattern { return algorithms.CCPattern() }

// LocalVertices lists the vertices owned by r.
func LocalVertices(g *Graph, r *Rank) []Vertex { return algorithms.LocalVertices(g, r) }

// Generators (internal/gen).
type (
	// WeightSpec configures edge-weight generation.
	WeightSpec = gen.Weights
)

// RMAT generates a Graph500-parameter RMAT graph.
func RMAT(scale, edgeFactor int, w WeightSpec, seed uint64) (n int, edges []Edge) {
	return gen.RMAT(scale, edgeFactor, w, seed)
}

// ER generates an Erdős–Rényi G(n, m) multigraph.
func ER(n, m int, w WeightSpec, seed uint64) []Edge { return gen.ER(n, m, w, seed) }

// Torus2D generates a directed 2D torus.
func Torus2D(rows, cols int, w WeightSpec, seed uint64) (n int, edges []Edge) {
	return gen.Torus2D(rows, cols, w, seed)
}

// PathGraph generates the directed path 0→1→…→n-1.
func PathGraph(n int, w WeightSpec, seed uint64) []Edge { return gen.Path(n, w, seed) }

// Telemetry plane (internal/obs, internal/am, internal/harness): per-phase
// kernel timers, live counter sampling, OpenMetrics export, and the debug
// HTTP server behind /metrics. See DESIGN.md "Telemetry plane".
type (
	// Metrics is the full observability snapshot (Universe.Metrics): counters,
	// per-rank breakdowns, per-type traffic, and phase histograms.
	// Universe.WriteOpenMetrics renders the same counters for /metrics.
	Metrics = am.Metrics
	// HistSnapshot is a plain histogram view (bounds, counts, sum, max).
	HistSnapshot = obs.HistSnapshot
	// Phase identifies one epoch phase of the timer taxonomy
	// (collect/build_csr/kernel/emit/barrier/recovery).
	Phase = obs.Phase
	// PhaseScope is an open phase timer on a rank; close with End. The zero
	// value (timing off) is a no-op.
	PhaseScope = am.PhaseScope
	// Sampler periodically diffs a cumulative counter source into a
	// fixed-size time-series ring (Universe.CounterSeries is the usual
	// source).
	Sampler = obs.Sampler
	// Sample is one sampler tick: cumulative values plus deltas since the
	// previous tick.
	Sample = obs.Sample
	// DebugServer serves pprof, expvar, and — once HandleMetrics registers a
	// source — OpenMetrics under /metrics, with graceful shutdown.
	DebugServer = harness.DebugServer
)

// Epoch phase identifiers (Rank.Phase). The substrate times kernel, barrier,
// and recovery automatically under WithTiming; strategies and algorithm
// drivers mark collect/build_csr/emit sections explicitly.
const (
	PhaseCollect  = obs.PhaseCollect
	PhaseBuildCSR = obs.PhaseBuildCSR
	PhaseKernel   = obs.PhaseKernel
	PhaseEmit     = obs.PhaseEmit
	PhaseBarrier  = obs.PhaseBarrier
	PhaseRecovery = obs.PhaseRecovery
)

// NewSampler creates a live metrics sampler over a cumulative counter
// source; drive it manually with Tick or on an interval with Start/Stop:
//
//	s := declpat.NewSampler(256, u.CounterSeries)
//	s.Start(250 * time.Millisecond)
//	defer s.Stop()
func NewSampler(size int, src func() map[string]int64) *Sampler { return obs.NewSampler(size, src) }

// NewDebugServer binds the diagnostic HTTP server (pprof, expvar, /metrics)
// on addr (":0" for ephemeral) and starts serving; the caller owns shutdown:
//
//	d, _ := declpat.NewDebugServer("127.0.0.1:0")
//	defer d.Close()
//	d.HandleMetrics(u.WriteOpenMetrics)
func NewDebugServer(addr string) (*DebugServer, error) { return harness.NewDebugServer(addr) }

// Launched jobs: run a bfs/sssp/cc job in the calling process, or across real
// OS worker processes, with barriers, gathers, termination waves, and
// checkpoint-commit votes carried as wire frames on a launcher-hosted control
// plane. A killed worker is respawned and the fleet restarts from the last
// committed checkpoint; the final result is bit-identical to the fault-free
// run.
type (
	// MPJobSpec is the one description of a bfs/sssp/cc run: every worker
	// of a launched fleet receives it inside its welcome frame, its
	// Normalize is the gate declpat-launch passes its flags through before
	// building anything, Bind builds the kernel a run executes, and Verify
	// checks a result against the sequential oracle.
	MPJobSpec = mp.JobSpec
	// MPKillSpec schedules one seeded worker kill for a fault drill.
	MPKillSpec = mp.KillSpec
	// MPLaunchSpec configures a launch: job, worker count (0 = in the
	// calling process), seeds, and the fleet's kill schedule and restart
	// budget; Validate is its one check. Every worker is the launching
	// executable itself (see MaybeWorker).
	MPLaunchSpec = mp.LaunchSpec
	// MPLaunchResult is a completed launch: result vectors, attempt count,
	// and per-attempt worker exit codes.
	MPLaunchResult = mp.LaunchResult
)

// CheckSizes is the size rule MPJobSpec.Normalize applies once its defaults
// are filled: no negative scale, edge factor or thread count, at least one
// rank, and a scale below 32. declpat-serve passes its graph flags through
// it.
func CheckSizes(scale, edgeFactor, ranks, threads int) error {
	return mp.CheckSizes(scale, edgeFactor, ranks, threads)
}

// Launch is the one runner of an MPJobSpec. With Workers 0 it runs the job
// in the calling process; otherwise it spawns a worker fleet, serves the wire
// control plane, and drives the run — respawning and restoring from
// checkpoints on worker death — until completion or restart-budget
// exhaustion. Either way a TraceDir receives one timeline.
func Launch(spec MPLaunchSpec) (*MPLaunchResult, error) { return mp.Launch(spec) }

// MaybeWorker turns the current process into a launched rank host when the
// DECLPAT_MP_ADDR / DECLPAT_MP_WORKER environment is set (never returning in
// that case), and is a no-op otherwise. Launch spawns its own executable as
// every worker, so call it early in main (or TestMain) of any binary that
// calls Launch; declpat-launch is such a binary, and the only worker binary
// the repo ships.
func MaybeWorker() { mp.MaybeWorker() }

// WorkerSeed derives the deterministic fault/chaos seed for worker idx
// hosting ranks [lo, hi) from a launch root seed: stable across respawns of
// the same worker, distinct across workers and across rank splits.
func WorkerSeed(root uint64, idx, lo, hi int) uint64 { return harness.WorkerSeed(root, idx, lo, hi) }

// Query plane (internal/query): a resident QueryService owns a long-lived
// universe, a graph, and pre-bound algorithm slots, and multiplexes many
// concurrent, independently-deadlined queries over them — admission control
// with a bounded queue, one query per scheduling step answered when its own
// epoch ends (concurrent PageRank queries share one job), and per-query
// context tagging of every epoch. cmd/declpat-serve is the HTTP front end.
// See DESIGN.md "Query plane".
type (
	// QueryService is the resident query plane; construct with
	// NewQueryService before Universe.Run, drive with Serve, submit from any
	// goroutine.
	QueryService = query.Service
	// QueryRequest describes one query (algorithm, source, deadline).
	QueryRequest = query.Request
	// QueryResult is a completed query's answer: the per-vertex property
	// vector plus lifecycle timestamps and the step's query count (1, or a
	// shared PageRank job's members).
	QueryResult = query.Result
	// QueryStatus is a point-in-time lifecycle snapshot of one query.
	QueryStatus = query.Status
	// QueryTicket is the submitter's handle: ID, Done, Wait, Cancel.
	QueryTicket = query.Ticket
	// QueryAlgo identifies a served algorithm (QueryBFS, QuerySSSP,
	// QueryPageRank).
	QueryAlgo = query.Algo
	// QueryOption configures a QueryService at construction.
	QueryOption = query.Option
	// QueryStats is a plain-value snapshot of the query plane's metrics.
	QueryStats = query.ServiceStats
)

// Served algorithms (QueryRequest.Algo).
const (
	QueryBFS      = query.BFS
	QuerySSSP     = query.SSSP
	QueryPageRank = query.PageRank
)

// Query lifecycle states (QueryStatus.State).
const (
	QueryStateQueued  = query.StateQueued
	QueryStateRunning = query.StateRunning
	QueryStateDone    = query.StateDone
	QueryStateFailed  = query.StateFailed
)

// Query-plane errors: the first three are Submit-time rejections; the rest
// surface as a failed ticket's error.
var (
	ErrQueryQueueFull = query.ErrQueueFull
	ErrQueryBadSource = query.ErrBadSource
	ErrQueryStopped   = query.ErrStopped
	ErrQueryCanceled  = query.ErrCanceled
	ErrQueryDeadline  = query.ErrDeadline
	ErrQueryUnknown   = query.ErrUnknown
	ErrQueryNotDone   = query.ErrNotDone
)

// QueryService construction options.
var (
	// WithQueueDepth bounds the admission queue.
	WithQueueDepth = query.WithQueueDepth
	// WithDefaultDeadline applies a deadline to requests without their own.
	WithDefaultDeadline = query.WithDefaultDeadline
	// WithRetain bounds how many finished results stay for point lookups.
	WithRetain = query.WithRetain
)

// NewQueryService builds a resident query service over eng's universe and
// graph. Must be called before Universe.Run; then drive the universe with
// QueryService.Serve and submit queries from any goroutine.
func NewQueryService(eng *Engine, opts ...QueryOption) *QueryService { return query.New(eng, opts...) }

// ParseQueryAlgo parses a wire name ("bfs", "sssp", "pagerank") produced by
// QueryAlgo.String.
func ParseQueryAlgo(s string) (QueryAlgo, error) { return query.ParseAlgo(s) }
