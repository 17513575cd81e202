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
	"declpat/internal/seq"
)

// Tests of coalesced re-invocation (PlanOptions.Coalesce): an action that is
// its own work hook mails a re-run of a changed vertex only when none is
// waiting to start.

func coalesceOpts(coalesce bool) pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	o.Coalesce = coalesce
	return o
}

// pendingWords counts the set pending words of acts over all ranks.
func pendingWords(u *am.Universe, acts ...*pattern.BoundAction) int {
	n := 0
	for _, a := range acts {
		for rank := 0; rank < u.Ranks(); rank++ {
			n += a.PendingReruns(rank)
		}
	}
	return n
}

// TestCoalesceDifferential: every algorithm gives bit-identical results with
// Coalesce on and off, at every rank and thread count, where relaxations are
// applied in place (the trusted channel transport: the applying thread sets
// the owner's word) and where they are mailed (reliable channels, Unix
// sockets: the owner's handler does). The planner marks every action but
// PageRank's accumulating push, and no run leaves a word set. Run under -race
// in CI: a word is shared by every thread that can change its vertex.
func TestCoalesceDifferential(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 77)
	transports := append([]struct {
		name string
		opts func(t *testing.T) []am.Option
	}{{"chan", func(*testing.T) []am.Option { return nil }}}, messageTransports...)
	for _, tc := range diffCases {
		for _, tr := range transports {
			for _, ranks := range []int{1, 2, 4} {
				for _, threads := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%s/%dx%d", tc.name, tr.name, ranks, threads), func(t *testing.T) {
						var answers [2][]int64
						for i, coalesce := range []bool{false, true} {
							u := am.New(ranks, append(tr.opts(t), am.WithThreads(threads))...)
							eng, lm := newEngineWith(u, n, edges, tc.gopts, coalesceOpts(coalesce))
							var acts []*pattern.BoundAction
							answers[i], acts = tc.run(t, u, eng, lm)
							for _, a := range acts {
								if got, want := a.PlanInfo().Coalesced, coalesce && a.Name() != "spread"; got != want {
									t.Errorf("coalesce=%v: action %s coalesced = %v\n%s", coalesce, a.Name(), got, a.PlanInfo())
								}
							}
							if p := pendingWords(u, acts...); p != 0 {
								t.Errorf("coalesce=%v: %d pending words left set", coalesce, p)
							}
						}
						if !slices.Equal(answers[0], answers[1]) {
							t.Fatalf("answers differ between Coalesce off and on")
						}
					})
				}
			}
		}
	}
}

// TestCoalesceConservation: fixed-point SSSP from several sources, one epoch
// each. At every epoch end no pending word is set and every message sent has
// been handled; an entry is a seed or a firing that won its word, so
// Invocations never exceed seeds plus changes; and coalescing removes work —
// on this graph the generated items fall to about 40 % (the bound is 60 %).
func TestCoalesceConservation(t *testing.T) {
	n, edges := gen.RMAT(12, 8, gen.Weights{Min: 1, Max: 100}, 42)
	sources := []distgraph.Vertex{0, 3, 17, 100}
	var items [2]int64
	for i, coalesce := range []bool{false, true} {
		u := am.New(2, am.WithThreads(1))
		eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, coalesceOpts(coalesce))
		s := NewSSSP(eng)
		var unbalanced, leftSet atomic.Int64
		last := make([]int64, n)
		runOrFail(t, u, func(r *am.Rank) {
			for _, src := range sources {
				s.Run(r, src)
				if r.ID() == 0 {
					if snap := u.Stats.Snapshot(); snap.MsgsSent != snap.HandlersRun {
						unbalanced.Add(1)
					}
					leftSet.Add(int64(pendingWords(u, s.Relax)))
					copy(last, s.Dist.Gather())
				}
				r.Barrier()
			}
		})
		label := fmt.Sprintf("coalesce=%v", coalesce)
		checkDist(t, label, last, seq.Dijkstra(n, edges, sources[len(sources)-1]))
		if unbalanced.Load() != 0 {
			t.Errorf("%s: %d epochs ended with MsgsSent != HandlersRun", label, unbalanced.Load())
		}
		if leftSet.Load() != 0 {
			t.Errorf("%s: %d pending words set at epoch ends", label, leftSet.Load())
		}
		st := &s.Relax.Stats
		if inv, most := st.Invocations.Load(), int64(len(sources))+st.ModsChanged.Load(); inv > most {
			t.Errorf("%s: %d invocations for %d seeds and changes", label, inv, most)
		}
		if got, want := st.WorkItems.Load(), st.ModsChanged.Load(); got != want {
			t.Errorf("%s: WorkItems = %d, ModsChanged = %d: every change of dist fires", label, got, want)
		}
		items[i] = st.Items.Load()
	}
	t.Logf("items: %d uncoalesced, %d coalesced (%.0f %%)", items[0], items[1], 100*float64(items[1])/float64(items[0]))
	if 10*items[1] > 6*items[0] {
		t.Errorf("items: %d coalesced, %d uncoalesced; want at most 60 %%", items[1], items[0])
	}
}

// TestCoalesceFoldsTheFiring: where a relaxation is applied in place by a
// co-resident rank, a coalesced rerun hook is requested by the applying thread
// — no hopFire, no hook at the owner, no self-send — so every message of the
// run is an entry: one per invocation but the seed's. Uncoalesced, a remote
// change costs hopFire plus the owner's self-send, and a local one the
// self-send.
func TestCoalesceFoldsTheFiring(t *testing.T) {
	n, edges := gen.RMAT(10, 8, gen.Weights{Min: 1, Max: 100}, 9)
	for _, coalesce := range []bool{false, true} {
		u := am.New(4, am.WithThreads(2))
		eng, _ := newEngineWith(u, n, edges, distgraph.Options{}, coalesceOpts(coalesce))
		s := NewSSSP(eng)
		runOrFail(t, u, func(r *am.Rank) { s.Run(r, 3) })
		checkDist(t, fmt.Sprintf("coalesce=%v", coalesce), s.Dist.Gather(), seq.Dijkstra(n, edges, 3))
		st := &s.Relax.Stats
		msgs, entries := u.Stats.MsgsSent(), st.Invocations.Load()-1
		if st.DirectHops.Load() == 0 {
			t.Fatalf("coalesce=%v: no direct hops", coalesce)
		}
		if coalesce && msgs != entries {
			t.Errorf("coalesced: %d messages for %d mailed entries: a firing must cost the entry and nothing else", msgs, entries)
		}
		if !coalesce && (msgs <= entries || entries != st.WorkItems.Load()) {
			t.Errorf("uncoalesced: %d messages, %d mailed entries, %d firings; want one entry per firing and hopFire messages besides",
				msgs, entries, st.WorkItems.Load())
		}
	}
}
