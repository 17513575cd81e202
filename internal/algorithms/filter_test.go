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

// Tests of the send-side filter (PlanOptions.Filter): a monotone eval hop that
// has to travel as a message is answered false at the sender when this rank
// already offered the vertex a value at least as good in the same epoch
// attempt.

func filterOpts(filter bool) pattern.PlanOptions {
	o := pattern.DefaultPlanOptions()
	o.Filter = filter
	return o
}

// filterEligible reports whether the engine filters any of a's eval hops.
func filterEligible(a *pattern.BoundAction) bool {
	for _, c := range a.PlanInfo().Conds {
		if c.Filter != "" {
			return true
		}
	}
	return false
}

// filteredActions names the library actions whose eval hop the planner marks
// and Bind keeps: min/max relaxations whose offer is known at the sender.
var filteredActions = map[string]bool{"bfs": true, "relax": true, "widen": true, "cc_link": true}

// messageTransports are the two ways every hop stays a message although all
// ranks share a process: the reliable protocol over channels (a zero-valued
// fault plan injects nothing) and real Unix sockets.
var messageTransports = []struct {
	name string
	opts func(t *testing.T) []am.Option
}{
	{"chan-reliable", func(*testing.T) []am.Option { return []am.Option{am.WithFaultPlan(&am.FaultPlan{})} }},
	{"unix", func(t *testing.T) []am.Option {
		return []am.Option{am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix", Dir: t.TempDir()}))}
	}},
}

// TestFilterDifferential: every algorithm gives bit-identical results with
// Filter on and off, at every rank and thread count, on both message
// transports; an action suppresses hops exactly when the engine marks one of
// its eval hops (min/max relaxations: BFS, SSSP, widest path, CC's link) and
// there is a second rank to send to, and never otherwise (CC's claim is
// lock-synchronized, PageRank accumulates). Run under -race in CI: a rank's
// body and handler threads share its filter table.
func TestFilterDifferential(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 77)
	for _, tc := range diffCases {
		for _, tr := range messageTransports {
			for _, ranks := range []int{1, 2, 4} {
				for _, threads := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%s/%dx%d", tc.name, tr.name, ranks, threads), func(t *testing.T) {
						var answers [2][]int64
						for i, filter := range []bool{false, true} {
							u := am.New(ranks, append(tr.opts(t), am.WithThreads(threads))...)
							eng, lm := newEngineWith(u, n, edges, tc.gopts, filterOpts(filter))
							var acts []*pattern.BoundAction
							answers[i], acts = tc.run(t, u, eng, lm)
							for _, a := range acts {
								hops, eligible := a.Stats.FilteredHops.Load(), filterEligible(a)
								if eligible != (filter && filteredActions[a.Name()]) {
									t.Errorf("filter=%v: action %s eligible = %v\n%s", filter, a.Name(), eligible, a.PlanInfo())
								}
								engaged := eligible && ranks > 1
								if (hops > 0 && !engaged) || (hops == 0 && engaged && !tc.unsure) {
									t.Errorf("filter=%v: action %s filtered %d hops (eligible %v)", filter, a.Name(), hops, eligible)
								}
							}
						}
						if !slices.Equal(answers[0], answers[1]) {
							t.Fatalf("answers differ between Filter off and on")
						}
					})
				}
			}
		}
	}
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
