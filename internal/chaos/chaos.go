// Package chaos is the oracle matrix: one table of cells, each a kernel run
// once with one plan variant on one deployment, and one checker that holds
// every cell to the sequential oracle (internal/seq) and to the predicates
// the matrix states — which plan options engage, conservation, no coalesced
// re-run word left set, and evidence that the deployment's faults were
// injected and absorbed. The deployments range from the trusted in-process
// transport through the reliable protocol under seeded drop, duplication,
// reordering and corruption to real sockets with connection kills and
// flapping links, so the matrix is the repo's evidence that the paper's
// declarative patterns, the plan options that must never change an answer
// (Direct, Filter, Coalesce) and the epoch machinery under them survive a
// lossy network, not just the trusted in-process simulation.
//
// The named tests of this package and the plan-option row sets of
// internal/algorithms are row sets of the one table. All randomness is
// explicitly seeded: the workload generator takes a seed, and every
// FaultPlan's seed is derived from a label with harness.DeriveSeed, so a
// failure is reproducible from the cell its message names.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// Workload is a generated input graph and the source its single-source
// kernels start from.
type Workload struct {
	N     int
	Edges []distgraph.Edge
	Src   distgraph.Vertex

	prOnce sync.Once
	pr     []int64 // PageRank's reference: pagerankRef
}

// Scenario is one deployment: machine shape, transport and faults.
type Scenario struct {
	Ranks   int
	Threads int
	// Batch is the envelope coalescing factor (am.WithCoalesce; 0 = the
	// transport's default). Small values ship many small envelopes, giving
	// the injector more targets.
	Batch    int
	Detector am.DetectorKind
	// Faults is the fault plan; nil runs the trusted transport, whose
	// co-resident ranks apply direct hops in place. Under any plan, the zero
	// plan included, every hop is a message and every envelope that crosses
	// a link is the fixed codec's bytes, so Corrupt faults apply to it.
	Faults *am.FaultPlan
	// Transport selects the message backend: "" or "chan" for the
	// in-process channel transport, "unix" or "tcp" for real loopback
	// sockets, where every envelope is framed, CRC-sealed, and crosses a
	// kernel socket.
	Transport string
	// SockFaults injects socket-level failures (connection kills, one-way
	// partitions, link flaps) into a socket transport; ignored on "chan".
	SockFaults *am.SockFaultPlan
}

func (sc Scenario) socket() bool { return sc.Transport == "unix" || sc.Transport == "tcp" }

// coresident reports whether ranks share memory they may operate on: the
// trusted channel transport (am.Rank.Coresident).
func (sc Scenario) coresident() bool { return sc.Faults == nil && !sc.socket() }

// String names the scenario for failure messages, fault seed included.
func (sc Scenario) String() string {
	s := fmt.Sprintf("%dx%d/%s", sc.Ranks, sc.Threads, sc.Detector)
	if f := sc.Faults; f != nil {
		s += fmt.Sprintf("/drop=%g,dup=%g,delay=%g,corrupt=%g/seed=%d", f.Drop, f.Dup, f.Delay, f.Corrupt, f.Seed)
	}
	if sc.socket() {
		s += "/transport=" + sc.Transport
		if f := sc.SockFaults; f != nil {
			s += fmt.Sprintf("/sockfaults=%d", len(f.Disconnects)+len(f.Partitions)+len(f.Flaps))
		}
	}
	return s
}

func (sc Scenario) options() []am.Option {
	opts := []am.Option{
		am.WithThreads(sc.Threads),
		am.WithCoalesce(sc.Batch),
		am.WithDetector(sc.Detector),
		am.WithFaultPlan(sc.Faults),
	}
	switch sc.Transport {
	case "", "chan":
	case "unix", "tcp":
		opts = append(opts, am.WithTransport(am.SockTransport(am.SockOptions{
			Network:      sc.Transport,
			TickInterval: 200 * time.Microsecond,
			Faults:       sc.SockFaults,
		})))
	default:
		panic(fmt.Sprintf("chaos: unknown Transport %q", sc.Transport))
	}
	return opts
}

// Kernel is one algorithm of the matrix.
type Kernel struct {
	Name  string
	gopts distgraph.Options
	// unsure: whether a run takes any direct or filtered hop depends on the
	// schedule (cc: one search may claim everything before a second one
	// starts, and then nothing conflicts, links or jumps).
	unsure bool
	// oneSeed: a fixed-point kernel entered at its source alone, so every
	// invocation but the seed's is a coalesced re-run request that won its
	// word, and a firing that found its word set was merged.
	oneSeed bool
	bind    func(u *am.Universe, eng *pattern.Engine, lm *pmap.LockMap) bound
	// wrong counts the vertices where an answer disagrees with the oracle.
	wrong func(w *Workload, answer []int64) int
}

// bound is a kernel bound on an engine: run runs it once from src (cc and
// pagerank ignore src), answer gathers its result, and acts are the bound
// actions it runs (nil when the algorithm does not expose them).
type bound struct {
	run    func(r *am.Rank, src distgraph.Vertex)
	answer func() []int64
	acts   []*pattern.BoundAction
}

// reference adapts a single-source internal/seq function to Kernel.wrong.
func reference(ref func(int, []distgraph.Edge, distgraph.Vertex) []int64) func(*Workload, []int64) int {
	return func(w *Workload, got []int64) int { return algorithms.CountWrong(got, ref(w.N, w.Edges, w.Src)) }
}

func sssp(name string, use func(u *am.Universe, s *algorithms.SSSP)) Kernel {
	return Kernel{Name: name, wrong: reference(seq.Dijkstra), bind: func(u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) bound {
		s := algorithms.NewSSSP(eng)
		use(u, s)
		return bound{s.Run, s.Dist.Gather, []*pattern.BoundAction{s.Relax}}
	}}
}

// The kernels, by name.
var (
	BFS = Kernel{Name: "bfs", wrong: reference(seq.BFS), bind: func(u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) bound {
		b := algorithms.NewBFS(eng)
		return bound{b.Run, b.Level.Gather, []*pattern.BoundAction{b.Visit}}
	}}
	SSSPFixedPoint = func() Kernel {
		k := sssp("sssp-fixed-point", func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		k.oneSeed = true
		return k
	}()
	SSSPDelta            = sssp("sssp-delta", func(u *am.Universe, s *algorithms.SSSP) { s.UseDelta(u, 30) })
	SSSPDeltaDistributed = sssp("sssp-delta-distributed", func(u *am.Universe, s *algorithms.SSSP) { s.UseDeltaDistributed(u, 30, 2) })
	SSSPDeltaLightHeavy  = Kernel{Name: "sssp-delta-light-heavy", unsure: true, wrong: reference(seq.Dijkstra), bind: func(u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) bound {
		s := algorithms.NewSSSP(eng).UseDeltaLightHeavy(u, 30) // runs its own two actions, not s.Relax
		return bound{s.Run, s.Dist.Gather, nil}
	}}
	Widest = Kernel{Name: "widest", wrong: reference(seq.WidestPath), bind: func(u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) bound {
		w := algorithms.NewWidest(eng)
		return bound{w.Run, w.Cap.Gather, []*pattern.BoundAction{w.Widen}}
	}}
	CC = Kernel{Name: "cc", gopts: distgraph.Options{Symmetrize: true}, unsure: true,
		wrong: func(w *Workload, got []int64) int {
			return algorithms.WrongPartition(got, seq.Components(w.N, w.Edges))
		},
		bind: func(u *am.Universe, eng *pattern.Engine, lm *pmap.LockMap) bound {
			c := algorithms.NewCC(eng, lm)
			return bound{func(r *am.Rank, _ distgraph.Vertex) { c.Run(r) }, c.Comp.Gather, []*pattern.BoundAction{c.Search, c.Link, c.Jump}}
		}}
	PageRank = Kernel{Name: "pagerank", bind: bindPageRank, wrong: func(w *Workload, got []int64) int {
		bad := 0
		for v, want := range w.pagerankRef() {
			if got[v] != want {
				bad++
			}
		}
		return bad
	}}
)

// kernels is the matrix's kernel axis.
var kernels = []Kernel{BFS, SSSPFixedPoint, SSSPDelta, SSSPDeltaDistributed, SSSPDeltaLightHeavy, Widest, CC, PageRank}

func bindPageRank(u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) bound {
	pr := algorithms.NewPageRank(eng, algorithms.PageRankPush)
	pr.MaxIters = 5
	return bound{func(r *am.Rank, _ distgraph.Vertex) { pr.Run(r) }, pr.Rank.Gather, []*pattern.BoundAction{pr.Action}}
}

// pagerankRef is PageRank's stand-in for an internal/seq reference: one
// trusted 1 × 1 run of the paper's plan (no Direct, Filter or Coalesce),
// computed once per workload.
func (w *Workload) pagerankRef() []int64 {
	w.prOnce.Do(func() {
		paper := pattern.DefaultPlanOptions()
		paper.Direct, paper.Filter, paper.Coalesce = false, false, false
		c := Cell{W: w, Plan: paper, Scenario: Scenario{Ranks: 1, Threads: 1}} // zero graph options, as PageRank's
		u, eng, lm := c.bind()
		k := bindPageRank(u, eng, lm)
		if err := u.Run(func(r *am.Rank) { k.run(r, 0) }); err != nil {
			panic(fmt.Sprintf("chaos: PageRank's trusted reference run failed: %v", err))
		}
		w.pr = k.answer()
	})
	return w.pr
}

// Cell is one row of the matrix: a kernel on a workload, bound with one
// plan variant and run on one deployment.
type Cell struct {
	Name   string // the row's name in its row set
	Kernel Kernel
	W      *Workload
	Plan   pattern.PlanOptions
	Scenario
	// Runs is how many times the kernel runs in the one universe (0 means
	// once); every run's answer is held to the oracle, so a second run
	// proves that the filter tables and pending words forgot the first.
	Runs int
}

// String names the cell for failure messages.
func (c Cell) String() string {
	plan := "shipped"
	if p := c.Plan; p != pattern.DefaultPlanOptions() {
		plan = fmt.Sprintf("%+v", p)
	}
	return fmt.Sprintf("%s[%s] under %s", c.Kernel.Name, plan, c.Scenario)
}

func (c Cell) bind() (*am.Universe, *pattern.Engine, *pmap.LockMap) {
	u := am.New(c.Ranks, c.options()...)
	d := distgraph.NewBlockDist(c.W.N, u.Ranks())
	g := distgraph.Build(d, c.W.Edges, c.Kernel.gopts)
	lm := pmap.NewLockMap(d, 1)
	return u, pattern.NewEngine(u, g, lm, c.Plan), lm
}

// deployments are the fault-free deployments of Grid: trusted channels
// (co-resident ranks, so Direct applies hops in place), the reliable
// protocol over channels under the zero fault plan (every hop a message,
// nothing injected) and real Unix sockets.
var deployments = map[string]Scenario{
	"chan":          {},
	"chan-reliable": {Faults: &am.FaultPlan{}},
	"unix":          {Transport: "unix"},
}

// gridWorkload is Grid's graph: RMAT scale 8, edge factor 8, from vertex 3.
var gridWorkload = sync.OnceValue(func() *Workload {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 77)
	return &Workload{N: n, Edges: edges, Src: 3}
})

// Grid returns the fault-free cells of plan on the named deployments: every
// kernel at ranks {1, 2, 4} × threads {1, 2} on each, named
// kernel/deployment/RxT.
func Grid(plan pattern.PlanOptions, deps ...string) []Cell {
	var cells []Cell
	for _, k := range kernels {
		for _, dep := range deps {
			for _, ranks := range []int{1, 2, 4} {
				for _, threads := range []int{1, 2} {
					sc := deployments[dep]
					sc.Ranks, sc.Threads = ranks, threads
					cells = append(cells, Cell{Name: fmt.Sprintf("%s/%s/%dx%d", k.Name, dep, ranks, threads),
						Kernel: k, W: gridWorkload(), Plan: plan, Scenario: sc})
				}
			}
		}
	}
	return cells
}

// Rows checks each cell in a parallel subtest named by its Name.
func Rows(t *testing.T, cells []Cell) {
	t.Helper()
	for _, c := range cells {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			check(t, c)
		})
	}
}

// filtered names the library actions whose eval hop the planner marks and
// Bind keeps: min/max relaxations whose offer is known at the sender (CC's
// claim is lock-synchronized, PageRank accumulates).
var filtered = map[string]bool{"bfs": true, "relax": true, "widen": true, "cc_link": true}

// check runs c (its kernel Runs times in one universe) and holds it to the
// oracle and to the matrix's predicates:
//   - every answer equals the internal/seq reference (PageRank: its one
//     trusted 1 × 1 paper-plan run);
//   - every message sent was handled (MsgsSent == HandlersRun);
//   - no coalesced re-run's pending word is left set;
//   - Direct engages exactly where a hop can be applied in place: the plan
//     has it, the ranks are co-resident and there is a second rank;
//   - an action is filter-eligible exactly when the plan filters and it is a
//     min/max relaxation, and it filters hops exactly when there is a
//     second rank to mail to and Direct does not apply them in place;
//   - every action but PageRank's accumulating push is coalesced exactly
//     when the plan coalesces, and a coalesced one-seed kernel merges a
//     request;
//   - the faults left their evidence: retransmits at 5 % drop or more,
//     detected corruption, wire bytes on a socket, reconnects and dropped
//     frames under socket faults.
//
// A kernel marked unsure may take no direct or filtered hop where one could
// engage.
func check(t *testing.T, c Cell) {
	t.Helper()
	if c.socket() {
		requireLoopback(t)
	}
	u, eng, lm := c.bind()
	k := c.Kernel.bind(u, eng, lm)
	answers := make([][]int64, max(c.Runs, 1))
	err := u.Run(func(r *am.Rank) {
		for i := range answers {
			k.run(r, c.W.Src)
			r.Barrier()
			if r.ID() == 0 {
				answers[i] = k.answer()
			}
			r.Barrier()
		}
	})
	if err != nil {
		t.Fatalf("%s: run failed: %v", c, err)
	}
	for i, got := range answers {
		if bad := c.Kernel.wrong(c.W, got); bad != 0 {
			t.Fatalf("%s: run %d: %d of %d vertices differ from the oracle; rerun this cell (its seeds are in its name) to reproduce", c, i+1, bad, len(got))
		}
	}
	st := u.Stats.Snapshot()
	if st.MsgsSent != st.HandlersRun {
		t.Errorf("%s: %d messages sent, %d handled", c, st.MsgsSent, st.HandlersRun)
	}
	direct := c.Plan.Direct && c.coresident() && c.Ranks > 1
	var directHops int64
	pending := 0
	for _, a := range k.acts {
		directHops += a.Stats.DirectHops.Load()
		for rank := 0; rank < c.Ranks; rank++ {
			pending += a.PendingReruns(rank)
		}
		eligible := false
		for _, cond := range a.PlanInfo().Conds {
			eligible = eligible || cond.Filter != ""
		}
		if eligible != (c.Plan.Filter && filtered[a.Name()]) {
			t.Errorf("%s: action %s filter-eligible = %v\n%s", c, a.Name(), eligible, a.PlanInfo())
		}
		engages(t, c, a.Name()+" filtered hops", a.Stats.FilteredHops.Load(), eligible && c.Ranks > 1 && !direct)
		if got, want := a.PlanInfo().Coalesced, c.Plan.Coalesce && a.Name() != "spread"; got != want {
			t.Errorf("%s: action %s coalesced = %v\n%s", c, a.Name(), got, a.PlanInfo())
		}
	}
	engages(t, c, "direct hops", directHops, direct)
	if pending != 0 {
		t.Errorf("%s: %d pending words left set", c, pending)
	}
	if c.Kernel.oneSeed && c.Plan.Coalesce {
		st := &k.acts[0].Stats
		if merged := st.WorkItems.Load() + int64(len(answers)) - st.Invocations.Load(); merged <= 0 {
			t.Errorf("%s: %d firings, %d invocations: no request was ever merged", c, st.WorkItems.Load(), st.Invocations.Load())
		}
	}
	if f := c.Faults; f != nil && c.Ranks > 1 {
		if f.Drop >= 0.05 && st.Retransmits == 0 {
			t.Errorf("%s: no retransmits at %g%% drop: faults not injected?", c, 100*f.Drop)
		}
		if f.Corrupt > 0 && st.CorruptionsDetected == 0 {
			t.Errorf("%s: no corruptions detected at %g%% corruption", c, 100*f.Corrupt)
		}
	}
	if c.socket() && c.Ranks > 1 && st.WireBytes == 0 {
		t.Errorf("%s: no wire bytes on a socket transport", c)
	}
	if c.SockFaults != nil && (st.Reconnects == 0 || st.FramesDropped == 0) {
		t.Errorf("%s: the socket fault schedule left %d reconnects and %d dropped frames, want both (stats %+v)", c, st.Reconnects, st.FramesDropped, st)
	}
}

// engages fails c when an option took n hops where it cannot engage, or
// none where it must.
func engages(t *testing.T, c Cell, what string, n int64, want bool) {
	t.Helper()
	if n > 0 && !want {
		t.Errorf("%s: %d %s where the option cannot engage", c, n, what)
	}
	if n == 0 && want && !c.Kernel.unsure {
		t.Errorf("%s: no %s where the option must engage", c, what)
	}
}

// requireLoopback skips socket cells in sandboxes that forbid binding
// loopback listeners.
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
}
