package pattern

import (
	"slices"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/seq"
)

// TestCoalesceRerunDeclaredNotSpelled: SetWorkRerun on an action the planner
// did not mark (Coalesce off) is the closure it replaces — the same messages,
// the same counters, in a schedule with no freedom (one rank, no handler
// threads) — and keeps no words; marked, it keeps one word per vertex, a later
// SetWork drops them again, and the same run expands less.
func TestCoalesceRerunDeclaredNotSpelled(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 21)
	type counts struct{ msgs, invocations, items, work int64 }
	run := func(coalesce bool, hook func(a *BoundAction)) (counts, bool) {
		e := newFilterEnvWith(t, am.New(1), n, edges, func(o *PlanOptions) { o.Coalesce = coalesce })
		hook(e.relax)
		if err := e.u.Run(func(r *am.Rank) { e.solve(r, 0) }); err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := seq.Dijkstra(n, edges, 0)
		for i, d := range want {
			if d == seq.Inf {
				want[i] = Inf
			}
		}
		if !slices.Equal(e.dmap.Gather(), want) {
			t.Fatalf("coalesce=%v: wrong distances", coalesce)
		}
		st := &e.relax.Stats
		return counts{e.u.Stats.MsgsSent(), st.Invocations.Load(), st.Items.Load(), st.WorkItems.Load()}, e.relax.pending != nil
	}
	spelled := func(a *BoundAction) {
		a.SetWork(func(r *am.Rank, v distgraph.Vertex) { a.InvokeAsync(r, v) })
	}
	declared := func(a *BoundAction) { a.SetWorkRerun() }

	old, _ := run(false, spelled)
	off, words := run(false, declared)
	if off != old || words {
		t.Errorf("Coalesce off: declared rerun %+v (words: %v), spelled closure %+v", off, words, old)
	}
	on, words := run(true, declared)
	if !words || on.items >= old.items || on.invocations != on.msgs+1 {
		t.Errorf("Coalesce on: %+v (words: %v) against %+v uncoalesced", on, words, old)
	}
	if _, words := run(true, func(a *BoundAction) { a.SetWorkRerun(); spelled(a) }); words {
		t.Error("SetWork after SetWorkRerun kept the pending words")
	}
}
