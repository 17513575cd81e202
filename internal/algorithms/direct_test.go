package algorithms

import (
	"slices"
	"sync/atomic"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
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

func runOrFail(t *testing.T, u *am.Universe, body func(r *am.Rank)) {
	t.Helper()
	if err := u.Run(body); err != nil {
		t.Fatalf("Run: %v", err)
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
// plan (even one that injects nothing) or lineage (on whenever tracing is,
// unless LineageOff) keeps every hop a message: no direct hops,
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
