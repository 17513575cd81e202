package pattern

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// runSSSP executes a fixed-point SSSP through the raw engine (the strategy
// layer is exercised in its own package) and returns the gathered distances.
func runSSSP(t *testing.T, u *am.Universe, n int, edges []distgraph.Edge, src distgraph.Vertex, opts PlanOptions) []int64 {
	t.Helper()
	dist := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(dist, edges, distgraph.Options{})
	lm := pmap.NewLockMap(dist, 1)
	eng := NewEngine(u, g, lm, opts)

	dmap := pmap.NewVertexWord(dist, Inf)
	wmap := pmap.WeightMap(g)
	bound, err := eng.Bind(buildSSSP(), Bindings{"dist": dmap, "weight": wmap})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	relax := bound.Action("relax")
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })

	u.Run(func(r *am.Rank) {
		if r.ID() == g.Owner(src) {
			dmap.Set(r.ID(), src, 0)
		}
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			if r.ID() == g.Owner(src) {
				relax.Invoke(r, src)
			}
		})
	})
	return dmap.Gather()
}

func TestEngineSSSPMatchesDijkstra(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 50}, 11)
	want := seq.Dijkstra(n, edges, 0)
	for _, m := range []struct {
		name  string
		ranks int
		opts  []am.Option
	}{
		{"1x0", 1, nil},
		{"1x2", 1, []am.Option{am.WithThreads(2)}},
		{"3x1", 3, []am.Option{am.WithThreads(1)}},
		{"4x2", 4, []am.Option{am.WithThreads(2)}},
		{"2x2/four-counter", 2, []am.Option{am.WithThreads(2), am.WithDetector(am.DetectorFourCounter)}},
	} {
		got := runSSSP(t, am.New(m.ranks, m.opts...), n, edges, 0, DefaultPlanOptions())
		for v := range want {
			w := want[v]
			if w == seq.Inf {
				w = Inf
			}
			if got[v] != w {
				t.Fatalf("%s: dist[%d] = %d, want %d", m.name, v, got[v], w)
			}
		}
	}
}

// TestEngineSSSPPlanVariants: every planner configuration that preserves the
// min-semantics must produce correct distances.
func TestEngineSSSPPlanVariants(t *testing.T) {
	n, edges := gen.RMAT(7, 8, gen.Weights{Min: 1, Max: 20}, 5)
	want := seq.Dijkstra(n, edges, 0)
	variants := []PlanOptions{
		{Merge: true, Fold: true},
		{Merge: true, Fold: false},
		{Merge: true, Fold: true, NaiveDFS: true},
	}
	for _, opts := range variants {
		got := runSSSP(t, am.New(3, am.WithThreads(1)), n, edges, 0, opts)
		for v := range want {
			w := want[v]
			if w == seq.Inf {
				w = Inf
			}
			if got[v] != w {
				t.Fatalf("opts %+v: dist[%d] = %d, want %d", opts, v, got[v], w)
			}
		}
	}
}

// TestEnginePointerJumpRuntime drives the cc_jump two-hop gather: chains
// chg[i] = i+1 collapse toward the minimum via repeated pointer jumping.
func TestEnginePointerJumpRuntime(t *testing.T) {
	const n = 16
	for _, ranks := range []int{1, 4} {
		u := am.New(ranks, am.WithThreads(1))
		dist := distgraph.NewBlockDist(n, ranks)
		// Graph structure is irrelevant for a GenNone action; a path
		// keeps the builder happy.
		g := distgraph.Build(dist, gen.Path(n, gen.Weights{}, 0), distgraph.Options{})
		lm := pmap.NewLockMap(dist, 1)
		eng := NewEngine(u, g, lm, DefaultPlanOptions())

		p := New("CCJ")
		chg := p.VertexProp("chg")
		a := p.Action("cc_jump", None())
		inner := chg.At(V())
		outer := chg.AtVal(inner)
		// if (chg[chg[v]] >= 0 && chg[chg[v]] < chg[v]) chg[v] = chg[chg[v]]
		a.If(And(Ge(outer, C(0)), Lt(outer, inner))).Set(chg.At(V()), outer)

		cmap := pmap.NewVertexWord(dist, 0)
		bound, err := eng.Bind(p, Bindings{"chg": cmap})
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		jump := bound.Action("cc_jump")

		u.Run(func(r *am.Rank) {
			// chg[i] = i-1 (chg[0] = 0): a chain pointing down.
			cmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
				if v == 0 {
					cmap.Set(r.ID(), v, 0)
				} else {
					cmap.Set(r.ID(), v, int64(v)-1)
				}
			})
			r.Barrier()
			// Repeated rounds of pointer jumping halve chain depth;
			// log2(16)=4 rounds suffice, run 5.
			for round := 0; round < 5; round++ {
				r.Epoch(func(ep *am.Epoch) {
					lg := g.Local(r.ID())
					for li := 0; li < lg.NumLocal(); li++ {
						jump.Invoke(r, g.Dist().Global(r.ID(), li))
					}
				})
			}
		})
		for v, c := range cmap.Gather() {
			if c != 0 {
				t.Fatalf("ranks=%d: chg[%d]=%d after jumping, want 0", ranks, v, c)
			}
		}
	}
}

// TestEngineSetInsert exercises the paper's preds[v].insert(u) modification:
// collect each vertex's predecessors through the out-edge generator.
func TestEngineSetInsert(t *testing.T) {
	n, edges := gen.Torus2D(4, 4, gen.Weights{}, 0)
	for _, ranks := range []int{1, 3} {
		u := am.New(ranks, am.WithThreads(1))
		dist := distgraph.NewBlockDist(n, ranks)
		g := distgraph.Build(dist, edges, distgraph.Options{})
		lm := pmap.NewLockMap(dist, 1)
		eng := NewEngine(u, g, lm, DefaultPlanOptions())

		p := New("Preds")
		preds := p.VertexSetProp("preds")
		a := p.Action("record", OutEdges())
		a.Do().Insert(preds.At(Trg()), Vtx(Src()))

		pm := pmap.NewVertexSet(dist, lm)
		bound, err := eng.Bind(p, Bindings{"preds": pm})
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		rec := bound.Action("record")
		u.Run(func(r *am.Rank) {
			r.Epoch(func(ep *am.Epoch) {
				lg := g.Local(r.ID())
				for li := 0; li < lg.NumLocal(); li++ {
					rec.Invoke(r, g.Dist().Global(r.ID(), li))
				}
			})
		})
		// Check against the edge list.
		want := map[distgraph.Vertex]map[distgraph.Vertex]bool{}
		for _, e := range edges {
			if want[e.Dst] == nil {
				want[e.Dst] = map[distgraph.Vertex]bool{}
			}
			want[e.Dst][e.Src] = true
		}
		for v := distgraph.Vertex(0); int(v) < n; v++ {
			got := pm.Members(dist.Owner(v), v)
			if len(got) != len(want[v]) {
				t.Fatalf("ranks=%d: preds[%d] = %v, want %d members", ranks, v, got, len(want[v]))
			}
			for _, s := range got {
				if !want[v][s] {
					t.Fatalf("preds[%d] contains %d unexpectedly", v, s)
				}
			}
		}
	}
}

// TestEngineAdjGenerator runs a one-round "minimum label propagation" over
// the adj generator and checks the SSSP-style invariant for one round.
func TestEngineAdjGenerator(t *testing.T) {
	n, edges := gen.Torus2D(3, 3, gen.Weights{}, 0)
	u := am.New(2, am.WithThreads(1))
	dist := distgraph.NewBlockDist(n, 2)
	g := distgraph.Build(dist, edges, distgraph.Options{Symmetrize: true})
	lm := pmap.NewLockMap(dist, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())

	p := New("MinLabel")
	lab := p.VertexProp("lab")
	a := p.Action("prop", Adj())
	// if (lab[v] < lab[u]) lab[u] = lab[v]
	a.If(Lt(lab.At(V()), lab.At(U()))).Set(lab.At(U()), lab.At(V()))

	lmap := pmap.NewVertexWord(dist, 0)
	bound, err := eng.Bind(p, Bindings{"lab": lmap})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	prop := bound.Action("prop")
	prop.SetWork(func(r *am.Rank, v distgraph.Vertex) { prop.InvokeAsync(r, v) })

	u.Run(func(r *am.Rank) {
		lmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
			lmap.Set(r.ID(), v, int64(v)+100)
		})
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			lg := g.Local(r.ID())
			for li := 0; li < lg.NumLocal(); li++ {
				prop.Invoke(r, g.Dist().Global(r.ID(), li))
			}
		})
	})
	// The torus is connected: with the work hook re-running to a fixed
	// point, every vertex ends at the global minimum label.
	for v, l := range lmap.Gather() {
		if l != 100 {
			t.Fatalf("lab[%d] = %d, want 100", v, l)
		}
	}
	if prop.Stats.WorkItems.Load() == 0 {
		t.Error("expected dependency work items")
	}
}

// TestEngineModifiedFlag verifies the per-rank modification flag used by the
// `once` strategy.
func TestEngineModifiedFlag(t *testing.T) {
	n := 8
	u := am.New(2, am.WithThreads(0))
	dist := distgraph.NewBlockDist(n, 2)
	g := distgraph.Build(dist, gen.Path(n, gen.Weights{}, 0), distgraph.Options{})
	lm := pmap.NewLockMap(dist, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())

	p := New("M")
	x := p.VertexProp("x")
	a := p.Action("cap", None())
	a.If(Gt(x.At(V()), C(5))).Set(x.At(V()), C(5))

	xmap := pmap.NewVertexWord(dist, 9)
	bound, err := eng.Bind(p, Bindings{"x": xmap})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	cap_ := bound.Action("cap")
	u.Run(func(r *am.Rank) {
		for round := 0; round < 2; round++ {
			cap_.ResetModified(r)
			r.Barrier()
			r.Epoch(func(ep *am.Epoch) {
				lg := g.Local(r.ID())
				for li := 0; li < lg.NumLocal(); li++ {
					cap_.Invoke(r, g.Dist().Global(r.ID(), li))
				}
			})
			any := r.AllReduceOr(cap_.ModifiedLocal(r))
			if round == 0 && !any {
				t.Error("round 0: expected modifications")
			}
			if round == 1 && any {
				t.Error("round 1: expected a fixed point")
			}
		}
	})
}

// TestEngineBindErrors checks binding validation.
func TestEngineBindErrors(t *testing.T) {
	u := am.New(1)
	dist := distgraph.NewBlockDist(4, 1)
	g := distgraph.Build(dist, gen.Path(4, gen.Weights{}, 0), distgraph.Options{})
	eng := NewEngine(u, g, pmap.NewLockMap(dist, 1), DefaultPlanOptions())
	p := buildSSSP()
	if _, err := eng.Bind(p, Bindings{"dist": pmap.NewVertexWord(dist, 0)}); err == nil {
		t.Error("expected error for missing weight binding")
	}
	if _, err := eng.Bind(p, Bindings{"dist": pmap.NewVertexWord(dist, 0), "weight": pmap.NewVertexWord(dist, 0)}); err == nil {
		t.Error("expected error for mis-typed weight binding")
	}
}

// TestEngineHandWrittenEquivalence cross-checks the engine against a
// hand-written AM++ SSSP (the E9 baseline shape): both must produce the same
// distances and the same relaxation counts on the same graph.
func TestEngineHandWrittenEquivalence(t *testing.T) {
	n, edges := gen.RMAT(7, 8, gen.Weights{Min: 1, Max: 30}, 9)
	want := seq.Dijkstra(n, edges, 0)

	// Hand-written: one message type carrying (target, candidate dist).
	u := am.New(3, am.WithThreads(1))
	dist := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(dist, edges, distgraph.Options{})
	dmap := pmap.NewVertexWord(dist, Inf)
	type relaxMsg struct {
		T distgraph.Vertex
		D int64
	}
	var mt *am.MsgType[relaxMsg]
	mt = am.Register(u, "relax", func(r *am.Rank, m relaxMsg) {
		if dmap.Min(r.ID(), m.T, m.D) {
			g.ForOutEdges(r.ID(), m.T, func(e distgraph.EdgeRef) {
				mt.Send(r, relaxMsg{T: e.Trg(), D: m.D + g.Weight(r.ID(), e)})
			})
		}
	}).WithAddresser(func(m relaxMsg) int { return g.Owner(m.T) })
	u.Run(func(r *am.Rank) {
		r.Epoch(func(ep *am.Epoch) {
			if r.ID() == g.Owner(0) {
				mt.Send(r, relaxMsg{T: 0, D: 0})
			}
		})
	})
	got := dmap.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = Inf
		}
		if got[v] != w {
			t.Fatalf("hand-written dist[%d] = %d, want %d", v, got[v], w)
		}
	}
}
