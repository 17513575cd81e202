package algorithms

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// Tests of co-resident direct application (PlanOptions.Direct): a single-word
// hop to a rank that shares this address space is applied in place by the
// sending thread instead of being mailed.

func planOpts(direct bool) pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	o.Direct = direct
	return o
}

// diffCase is one algorithm of the differential matrices (Direct on/off here,
// Filter on/off in filter_test.go): build it on an engine, run it, and return
// its answer plus the bound actions it ran (nil when the algorithm does not
// expose them).
type diffCase struct {
	name  string
	gopts distgraph.Options
	// unsure: whether a run takes any direct (or filtered) hop depends on the
	// schedule (CC: one search may claim everything before a second one
	// starts, and then nothing conflicts, links or jumps).
	unsure bool
	run    func(t *testing.T, u *am.Universe, eng *pattern.Engine, lm *pmap.LockMap) (answer []int64, acts []*pattern.BoundAction)
}

func runOrFail(t *testing.T, u *am.Universe, body func(r *am.Rank)) {
	t.Helper()
	if err := u.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func ssspCase(name string, mk func(u *am.Universe, s *SSSP)) diffCase {
	return diffCase{name: name, run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		s := NewSSSP(eng)
		mk(u, s)
		runOrFail(t, u, func(r *am.Rank) { s.Run(r, 3) })
		return s.Dist.Gather(), []*pattern.BoundAction{s.Relax}
	}}
}

var diffCases = []diffCase{
	{name: "bfs", run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		b := NewBFS(eng)
		runOrFail(t, u, func(r *am.Rank) { b.Run(r, 3) })
		return b.Level.Gather(), []*pattern.BoundAction{b.Visit}
	}},
	ssspCase("sssp-fixed-point", func(u *am.Universe, s *SSSP) { s.UseFixedPoint() }),
	ssspCase("sssp-delta", func(u *am.Universe, s *SSSP) { s.UseDelta(u, 30) }),
	ssspCase("sssp-delta-distributed", func(u *am.Universe, s *SSSP) { s.UseDeltaDistributed(u, 30, 2) }),
	{name: "sssp-delta-light-heavy", unsure: true, run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		s := NewSSSP(eng).UseDeltaLightHeavy(u, 30) // runs its own two actions, not s.Relax
		runOrFail(t, u, func(r *am.Rank) { s.Run(r, 3) })
		return s.Dist.Gather(), nil
	}},
	{name: "widest", run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		w := NewWidest(eng)
		runOrFail(t, u, func(r *am.Rank) { w.Run(r, 3) })
		return w.Cap.Gather(), []*pattern.BoundAction{w.Widen}
	}},
	{name: "cc", gopts: distgraph.Options{Symmetrize: true}, unsure: true, run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, lm *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		c := NewCC(eng, lm)
		runOrFail(t, u, func(r *am.Rank) { c.Run(r) })
		// Which root labels a component depends on which search got
		// there first; the partition does not. Name each component by
		// its smallest vertex so equal partitions compare equal.
		comp := c.Comp.Gather()
		least := map[int64]int64{}
		for v, l := range comp {
			if _, ok := least[l]; !ok {
				least[l] = int64(v)
			}
		}
		for v, l := range comp {
			comp[v] = least[l]
		}
		return comp, []*pattern.BoundAction{c.Search, c.Link, c.Jump}
	}},
	{name: "pagerank", run: func(t *testing.T, u *am.Universe, eng *pattern.Engine, _ *pmap.LockMap) ([]int64, []*pattern.BoundAction) {
		pr := NewPageRank(eng, PageRankPush)
		pr.MaxIters = 5
		runOrFail(t, u, func(r *am.Rank) { pr.Run(r) })
		return pr.Rank.Gather(), []*pattern.BoundAction{pr.Action}
	}},
}

// TestDirectDifferential: every algorithm gives bit-identical results with
// Direct on and off, at every rank and thread count, and Direct engages
// exactly when there is a second rank to be co-resident with. Run under
// -race in CI: the directly applied operations are foreign-thread atomics on
// another rank's shard.
func TestDirectDifferential(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 77)
	for _, tc := range diffCases {
		for _, ranks := range []int{1, 2, 4} {
			for _, threads := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%dx%d", tc.name, ranks, threads), func(t *testing.T) {
					var answers [2][]int64
					for i, direct := range []bool{false, true} {
						u := am.New(ranks, am.WithThreads(threads))
						eng, lm := newEngineWith(u, n, edges, tc.gopts, planOpts(direct))
						var acts []*pattern.BoundAction
						answers[i], acts = tc.run(t, u, eng, lm)
						var hops int64
						for _, a := range acts {
							hops += a.Stats.DirectHops.Load()
						}
						engaged := direct && ranks > 1
						if (hops > 0 && !engaged) || (hops == 0 && engaged && !tc.unsure) {
							t.Errorf("direct=%v: %d direct hops", direct, hops)
						}
					}
					if !slices.Equal(answers[0], answers[1]) {
						t.Fatalf("answers differ between Direct off and on")
					}
				})
			}
		}
	}
}

// crossRankEdges counts the edges whose endpoints live on different ranks:
// the messages one round of Degree costs when every hop is a message.
func crossRankEdges(n, ranks int, edges []distgraph.Edge) int64 {
	d := distgraph.NewBlockDist(n, ranks)
	var c int64
	for _, e := range edges {
		if d.Owner(e.Src) != d.Owner(e.Dst) {
			c++
		}
	}
	return c
}

// TestDirectOnlyWhenCoresident: Direct engages on the trusted channel
// transport and nowhere else. A universe with a socket transport, a fault
// plan (even one that injects nothing), recovery or lineage (on whenever
// tracing is, unless LineageOff) keeps every hop a message: no direct hops,
// and exactly the message count of Direct off — one per rank-crossing edge
// for Degree's `indeg[trg(e)] += 1`. Tracing without lineage does not.
func TestDirectOnlyWhenCoresident(t *testing.T) {
	const ranks = 3
	n, edges := gen.RMAT(7, 8, gen.Weights{Min: 1, Max: 9}, 11)
	cross := crossRankEdges(n, ranks, edges)
	want := make([]int64, n)
	for _, e := range edges {
		want[e.Dst]++
	}
	cases := []struct {
		name       string
		opts       func(t *testing.T) []am.Option
		coresident bool
	}{
		{"chan-trusted", func(*testing.T) []am.Option { return nil }, true},
		{"sock-unix", func(t *testing.T) []am.Option {
			return []am.Option{am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix", Dir: t.TempDir()}))}
		}, false},
		{"zero-fault-plan", func(*testing.T) []am.Option { return []am.Option{am.WithFaultPlan(&am.FaultPlan{})} }, false},
		{"recovery", func(*testing.T) []am.Option { return []am.Option{am.WithRecovery()} }, false},
		{"lineage", func(*testing.T) []am.Option { return []am.Option{am.WithTraceCapacity(1 << 12)} }, false},
		{"traced", func(*testing.T) []am.Option {
			return []am.Option{am.WithTraceCapacity(1 << 12), am.WithLineage(am.LineageOff)}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, direct := range []bool{false, true} {
				u := am.New(ranks, append(tc.opts(t), am.WithThreads(1))...)
				eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, planOpts(direct))
				eng.MsgType().WithWire() // sockets need a wire codec; harmless elsewhere
				d := NewDegreeCount(eng)
				runOrFail(t, u, func(r *am.Rank) { d.Run(r) })
				if got := d.InDeg.Gather(); !slices.Equal(got, want) {
					t.Fatalf("direct=%v: wrong in-degrees", direct)
				}
				hops, msgs := d.Count.Stats.DirectHops.Load(), u.Stats.MsgsSent()
				if direct && tc.coresident {
					if hops != cross || msgs != 0 {
						t.Errorf("direct hops = %d, msgs = %d; want %d hops and no messages", hops, msgs, cross)
					}
				} else if hops != 0 || msgs != cross {
					t.Errorf("direct=%v: direct hops = %d, msgs = %d; want 0 hops and %d messages", direct, hops, msgs, cross)
				}
			}
		})
	}
}

// TestDirectConservation: with Direct on, every message sent is handled
// within its epoch — MsgsSent == HandlersRun at every epoch end, which is the
// detector's pending == 0 (the two counters move at the same two sites) —
// and a dependency work hook function (SetWork: here a counter, below the
// Δ-stepping bucket insert) still runs on the rank that owns the vertex,
// although another rank's thread changed it. The coalesced rerun hook
// (SetWorkRerun) is not a function and runs nowhere: the applying thread
// requests the re-run and counts the firing (TestCoalesceFoldsTheFiring).
func TestDirectConservation(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 5)
	u := am.New(4, am.WithThreads(2))
	eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, planOpts(true))
	g := eng.Graph()
	s := NewSSSP(eng)
	var misplaced, fired atomic.Int64
	s.Relax.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		fired.Add(1)
		if g.Owner(v) != r.ID() {
			misplaced.Add(1)
		}
	})
	var unbalanced atomic.Int64
	runOrFail(t, u, func(r *am.Rank) {
		s.ResetLocal(r)
		s.SeedLocal(r, nil, 3)
		r.Barrier()
		locals := LocalVertices(g, r)
		// Bellman-Ford rounds, one epoch each, the `once` strategy by hand
		// so the counters can be read between epochs.
		for changed := true; changed; {
			s.Relax.ResetModified(r)
			r.Barrier()
			r.Epoch(func(*am.Epoch) {
				for _, v := range locals {
					s.Relax.Invoke(r, v)
				}
			})
			if snap := u.Stats.Snapshot(); r.ID() == 0 && snap.MsgsSent != snap.HandlersRun {
				unbalanced.Add(1)
			}
			changed = r.AllReduceOr(s.Relax.ModifiedLocal(r))
		}
	})
	checkDist(t, "rounds", s.Dist.Gather(), seq.Dijkstra(n, edges, 3))
	if unbalanced.Load() != 0 {
		t.Errorf("%d epochs ended with MsgsSent != HandlersRun", unbalanced.Load())
	}
	if misplaced.Load() != 0 {
		t.Errorf("%d of %d work hooks ran off the owning rank", misplaced.Load(), fired.Load())
	}
	if s.Relax.Stats.DirectHops.Load() == 0 || u.Stats.MsgsSent() == 0 {
		t.Errorf("direct hops = %d, msgs = %d: want both (hops applied in place, news sent as hopFire)",
			s.Relax.Stats.DirectHops.Load(), u.Stats.MsgsSent())
	}
	if got, want := fired.Load(), s.Relax.Stats.WorkItems.Load(); got != want {
		t.Errorf("hook ran %d times, WorkItems = %d", got, want)
	}

	// Δ-stepping files a changed vertex into the buckets of the rank the
	// hook runs on, reading its key through the owner-checked accessor: an
	// insert on the wrong rank panics, so a correct answer proves placement.
	u2 := am.New(4, am.WithThreads(2))
	eng2, _ := newEngineWith(u2, n, edges, distgraph.Options{}, planOpts(true))
	d := NewSSSP(eng2)
	d.UseDelta(u2, 25)
	runOrFail(t, u2, func(r *am.Rank) { d.Run(r, 3) })
	checkDist(t, "delta", d.Dist.Gather(), seq.Dijkstra(n, edges, 3))
	if d.Relax.Stats.DirectHops.Load() == 0 {
		t.Error("delta: no direct hops")
	}
}
