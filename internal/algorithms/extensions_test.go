package algorithms

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

func TestSSSPLightHeavy(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{Min: 1, Max: 100}, 101)
	want := seq.Dijkstra(n, edges, 0)
	for _, delta := range []int64{10, 50, 1000} {
		u := am.New(3, am.WithThreads(2))
		eng, _ := newEngine(u, n, edges, distgraph.Options{})
		s := NewSSSP(eng)
		s.UseDeltaLightHeavy(u, delta)
		u.Run(func(r *am.Rank) { s.Run(r, 0) })
		checkDist(t, "light-heavy", s.Dist.Gather(), want)
	}
}

// TestLightHeavyEarlyExitPlan: the weight guard hoists into an early-exit
// preTest, and the remaining test still classifies as the atomic relax
// shape — so heavy edges cost no messages during the light phase and light
// relaxations stay lock-free.
func TestLightHeavyEarlyExitPlan(t *testing.T) {
	eng, _ := newEngine(am.New(1), 4, gen.Path(4, gen.Weights{Min: 1, Max: 9}, 0), distgraph.Options{})
	bound, err := eng.Bind(SSSPLightHeavyPattern(50), pattern.Bindings{
		"dist":   pmap.NewVertexWord(eng.Graph().Dist(), pattern.Inf),
		"weight": pmap.WeightMap(eng.Graph()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"relax_light", "relax_heavy"} {
		c := bound.Action(name).PlanInfo().Conds[0]
		if !c.EarlyExit {
			t.Errorf("%s: weight guard not hoisted to early exit", name)
		}
		if c.Sync != "atomic-min" {
			t.Errorf("%s: sync = %s, want atomic-min", name, c.Sync)
		}
		if c.Messages != 1 {
			t.Errorf("%s: messages = %d, want 1", name, c.Messages)
		}
	}
}

// TestEarlyExitSavesMessages: a pattern with an entry-local filter should
// send messages only for items passing the filter when EarlyExit is on.
func TestEarlyExitSavesMessages(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{Min: 1, Max: 100}, 17)
	counts := map[bool]int64{}
	for _, ee := range []bool{true, false} {
		u := am.New(4, am.WithThreads(1))
		d := distgraph.NewBlockDist(n, 4)
		g := distgraph.Build(d, edges, distgraph.Options{})
		popts := pattern.DefaultPlanOptions()
		popts.EarlyExit = ee
		eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), popts)

		p := pattern.New("Filter")
		mark := p.VertexProp("mark")
		w := p.EdgeProp("w")
		a := p.Action("mark_heavy", pattern.OutEdges())
		// Only edges with weight > 90 mark their target.
		a.If(pattern.And(pattern.Gt(w.At(pattern.E()), pattern.C(90)),
			pattern.Lt(mark.At(pattern.Trg()), pattern.C(1)))).
			Set(mark.At(pattern.Trg()), pattern.C(1))
		mm := pmap.NewVertexWord(d, 0)
		bound, err := eng.Bind(p, pattern.Bindings{"mark": mm, "w": pmap.WeightMap(g)})
		if err != nil {
			t.Fatal(err)
		}
		act := bound.Action("mark_heavy")
		if got := act.PlanInfo().Conds[0].EarlyExit; got != ee {
			t.Fatalf("EarlyExit plan flag = %v, want %v", got, ee)
		}
		u.Run(func(r *am.Rank) {
			r.Epoch(func(ep *am.Epoch) {
				for _, v := range LocalVertices(g, r) {
					act.Invoke(r, v)
				}
			})
		})
		counts[ee] = u.Stats.MsgsSent()
		// Correctness: marks identical in both modes.
		want := map[distgraph.Vertex]bool{}
		for _, e := range edges {
			if e.W > 90 {
				want[e.Dst] = true
			}
		}
		for v, m := range mm.Gather() {
			if (m == 1) != want[distgraph.Vertex(v)] {
				t.Fatalf("earlyexit=%v: mark[%d]=%d want %v", ee, v, m, want[distgraph.Vertex(v)])
			}
		}
	}
	if counts[true] >= counts[false] {
		t.Fatalf("early exit did not save messages: on=%d off=%d", counts[true], counts[false])
	}
	// Roughly 10% of weights exceed 90; allow generous slack.
	if counts[true]*4 > counts[false] {
		t.Fatalf("early exit saved too little: on=%d off=%d", counts[true], counts[false])
	}
}

func TestDegreeCount(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{}, 31)
	want := make([]int64, n)
	for _, e := range edges {
		want[e.Dst]++
	}
	for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
		u := am.New(sh.ranks, am.WithThreads(sh.threads))
		eng, _ := newEngine(u, n, edges, distgraph.Options{})
		dc := NewDegreeCount(eng)
		u.Run(func(r *am.Rank) { dc.Run(r) })
		got := dc.InDeg.Gather()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%dx%d: indeg[%d]=%d want %d", sh.ranks, sh.threads, v, got[v], want[v])
			}
		}
		// The unconditional remote add must classify as atomic-add.
		if s := dc.Count.PlanInfo().Conds[0].Sync; s != "atomic-add" {
			t.Fatalf("degree sync = %s", s)
		}
	}
}
