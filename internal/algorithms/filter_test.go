package algorithms

import (
	"fmt"
	"sync/atomic"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/seq"
)

// Tests of the send-side filter (PlanOptions.Filter): a monotone eval hop that
// has to travel as a message is answered false at the sender when this rank
// already offered the vertex a value at least as good in the same epoch
// attempt.

func filterOpts(filter bool) pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	o.Filter = filter
	return o
}

// TestFilterNotConsultedWhenCoresident: on the trusted channel transport with
// Direct on, a relaxation to another rank is applied in place; nothing is
// sent, so nothing is filtered.
func TestFilterNotConsultedWhenCoresident(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 77)
	u := am.New(4, am.WithThreads(2))
	eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, pattern.DefaultPlanOptions())
	s := NewSSSP(eng)
	runOrFail(t, u, func(r *am.Rank) { s.Run(r, 3) })
	checkDist(t, "coresident", s.Dist.Gather(), seq.Dijkstra(n, edges, 3))
	if f, d := s.Relax.Stats.FilteredHops.Load(), s.Relax.Stats.DirectHops.Load(); f != 0 || d == 0 {
		t.Errorf("filtered hops = %d, direct hops = %d; want none filtered, some direct", f, d)
	}
}

// TestFilterConservation: with the filter on, every message sent is handled
// within its epoch (MsgsSent == HandlersRun at every epoch end), a filtered
// hop is counted as a false test and nothing else, and the filter removes
// messages: Bellman-Ford rounds relax every edge every round, so after the
// first offer to a vertex most of a round's offers cannot win.
func TestFilterConservation(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 5)
	var msgs [2]int64
	for i, filter := range []bool{false, true} {
		u := am.New(4, am.WithThreads(2), am.WithFaultPlan(&am.FaultPlan{}))
		eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, filterOpts(filter))
		g := eng.Graph()
		s := NewSSSP(eng)
		var unbalanced atomic.Int64
		runOrFail(t, u, func(r *am.Rank) {
			s.ResetLocal(r)
			s.SeedLocal(r, nil, 3)
			r.Barrier()
			locals := LocalVertices(g, r)
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
		checkDist(t, fmt.Sprintf("filter=%v", filter), s.Dist.Gather(), seq.Dijkstra(n, edges, 3))
		if unbalanced.Load() != 0 {
			t.Errorf("filter=%v: %d epochs ended with MsgsSent != HandlersRun", filter, unbalanced.Load())
		}
		st := &s.Relax.Stats
		if got, want := st.TestsTrue.Load()+st.TestsFalse.Load(), st.Items.Load(); got != want {
			t.Errorf("filter=%v: %d tests for %d items: a filtered hop must count as exactly one false test", filter, got, want)
		}
		if f := st.FilteredHops.Load(); (f > 0) != filter {
			t.Errorf("filter=%v: %d filtered hops", filter, f)
		}
		msgs[i] = u.Stats.MsgsSent()
	}
	if msgs[1] >= msgs[0] {
		t.Errorf("messages: %d with the filter, %d without", msgs[1], msgs[0])
	}
}
