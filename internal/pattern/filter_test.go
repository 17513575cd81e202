package pattern

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// filterEnv is a universe, an engine and one distance map bound to the SSSP
// relax action, for tests that look inside the engine's filter table.
type filterEnv struct {
	u     *am.Universe
	g     *distgraph.Graph
	eng   *Engine
	dmap  *pmap.VertexWord
	relax *BoundAction
}

func newFilterEnv(t *testing.T, u *am.Universe, n int, edges []distgraph.Edge) filterEnv {
	t.Helper()
	return newFilterEnvWith(t, u, n, edges, func(*PlanOptions) {})
}

// newFilterEnvWith is newFilterEnv with the shipped plan options adjusted.
func newFilterEnvWith(t *testing.T, u *am.Universe, n int, edges []distgraph.Edge, adjust func(*PlanOptions)) filterEnv {
	t.Helper()
	dist := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(dist, edges, distgraph.Options{})
	popts := DefaultPlanOptions()
	adjust(&popts)
	eng := NewEngine(u, g, pmap.NewLockMap(dist, 1), popts)
	dmap := pmap.NewVertexWord(dist, Inf)
	bound, err := eng.Bind(buildSSSP(), Bindings{"dist": dmap, "weight": pmap.WeightMap(g)})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	relax := bound.Action("relax")
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
	return filterEnv{u, g, eng, dmap, relax}
}

// solve resets the map and runs one fixed-point SSSP epoch from src.
func (e filterEnv) solve(r *am.Rank, src distgraph.Vertex) {
	e.dmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) { e.dmap.Set(r.ID(), v, Inf) })
	if r.ID() == e.g.Owner(src) {
		e.dmap.Set(r.ID(), src, 0)
	}
	r.Barrier()
	r.Epoch(func(*am.Epoch) {
		if r.ID() == e.g.Owner(src) {
			e.relax.Invoke(r, src)
		}
	})
}

func (e filterEnv) tablesAllocated() int {
	n := 0
	for _, f := range e.eng.filters {
		for i := range f.ranks {
			if f.ranks[i].best != nil {
				n++
			}
		}
	}
	return n
}

// checkTouched asserts what reset relies on to clear a table in time
// proportional to the offers made: touched[:n] names exactly the entries that
// hold an offer.
func (e filterEnv) checkTouched(t *testing.T) {
	t.Helper()
	for _, f := range e.eng.filters {
		for rank := range f.ranks {
			fr := &f.ranks[rank]
			listed := map[distgraph.Vertex]bool{}
			for _, v := range fr.touched[:fr.n.Load()] {
				if listed[v] {
					t.Errorf("rank %d: vertex %d listed twice", rank, v)
				}
				listed[v] = true
			}
			for v := range fr.best {
				if has := fr.best[v].Load() != f.none(); has != listed[distgraph.Vertex(v)] {
					t.Errorf("rank %d: vertex %d holds an offer = %v, listed = %v", rank, v, has, listed[distgraph.Vertex(v)])
				}
			}
		}
	}
}

// TestFilterTableOnlyWhereMessagesFlow: the table is allocated at a rank's
// first filtered send. A co-resident universe applies its relaxations in
// place and never allocates one; the same run under the reliable protocol
// allocates one per rank.
func TestFilterTableOnlyWhereMessagesFlow(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 50}, 11)
	want := seq.Dijkstra(n, edges, 0)
	for _, tc := range []struct {
		name   string
		opts   []am.Option
		tables int
	}{
		{"coresident", nil, 0},
		{"reliable", []am.Option{am.WithFaultPlan(&am.FaultPlan{})}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newFilterEnv(t, am.New(4, append(tc.opts, am.WithThreads(2))...), n, edges)
			if err := e.u.Run(func(r *am.Rank) { e.solve(r, 0) }); err != nil {
				t.Fatal(err)
			}
			got := e.dmap.Gather()
			for v := range want {
				if w := want[v]; got[v] != w && !(w == seq.Inf && got[v] == Inf) {
					t.Fatalf("dist[%d] = %d, want %d", v, got[v], w)
				}
			}
			if got := e.tablesAllocated(); got != tc.tables {
				t.Errorf("%d filter tables allocated, want %d", got, tc.tables)
			}
			if f := e.relax.Stats.FilteredHops.Load(); (f > 0) != (tc.tables > 0) {
				t.Errorf("%d filtered hops with %d tables", f, tc.tables)
			}
			e.checkTouched(t)
		})
	}
}

// TestFilterForgetsBetweenEpochs: what a rank offered in one epoch says
// nothing about the next — user code resets the map in between. Solving from
// the same source twice makes every offer of the second solve one the first
// already made; a table that outlived its epoch would suppress them all.
func TestFilterForgetsBetweenEpochs(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 50}, 11)
	want := seq.Dijkstra(n, edges, 0)
	e := newFilterEnv(t, am.New(3, am.WithThreads(1), am.WithFaultPlan(&am.FaultPlan{})), n, edges)
	if err := e.u.Run(func(r *am.Rank) {
		e.solve(r, 0)
		r.Barrier()
		e.solve(r, 0)
	}); err != nil {
		t.Fatal(err)
	}
	got := e.dmap.Gather()
	for v := range want {
		if w := want[v]; got[v] != w && !(w == seq.Inf && got[v] == Inf) {
			t.Fatalf("second solve: dist[%d] = %d, want %d", v, got[v], w)
		}
	}
	e.checkTouched(t) // the second solve's offers only: the first's were cleared
}

// TestBindDeclinesFilterOnMixedWriters: the filter needs every write to the
// map to be the same monotone operation. A second action that assigns the map
// (bound before or after, in the same pattern or another) turns the filter
// off for the relaxations as well; a second min-writer does not.
func TestBindDeclinesFilterOnMixedWriters(t *testing.T) {
	dist := distgraph.NewBlockDist(4, 2)
	g := distgraph.Build(dist, []distgraph.Edge{{Src: 0, Dst: 3, W: 1}}, distgraph.Options{})
	// other builds a one-action pattern over a single property x; a builder,
	// because Bind compiles the pattern it is given in place.
	other := func(mod func(x *Prop, a *Action)) func() *Pattern {
		return func() *Pattern {
			p := New("Other")
			mod(p.VertexProp("x"), p.Action("touch", OutEdges()))
			return p
		}
	}
	cases := []struct {
		name     string
		second   func() *Pattern
		sameMap  bool
		filtered bool
	}{
		{"alone", nil, false, true},
		{"second-min-writer", other(func(x *Prop, a *Action) { a.Do().SetMin(x.At(Trg()), x.At(V())) }), true, true},
		{"assigning-writer", other(func(x *Prop, a *Action) { a.Do().Set(x.At(V()), C(7)) }), true, false},
		{"max-writer", other(func(x *Prop, a *Action) { a.Do().SetMax(x.At(Trg()), x.At(V())) }), true, false},
		{"assigning-writer-other-map", other(func(x *Prop, a *Action) { a.Do().Set(x.At(V()), C(7)) }), false, true},
	}
	for _, tc := range cases {
		for _, secondFirst := range []bool{false, true} {
			if tc.second == nil && secondFirst {
				continue
			}
			eng := NewEngine(am.New(2), g, pmap.NewLockMap(dist, 1), DefaultPlanOptions())
			dmap := pmap.NewVertexWord(dist, Inf)
			var relax *BoundAction
			bindRelax := func() {
				b, err := eng.Bind(buildSSSP(), Bindings{"dist": dmap, "weight": pmap.WeightMap(g)})
				if err != nil {
					t.Fatal(err)
				}
				relax = b.Action("relax")
			}
			bindSecond := func() {
				if tc.second == nil {
					return
				}
				x := dmap
				if !tc.sameMap {
					x = pmap.NewVertexWord(dist, 0)
				}
				if _, err := eng.Bind(tc.second(), Bindings{"x": x}); err != nil {
					t.Fatal(err)
				}
			}
			if secondFirst {
				bindSecond()
				bindRelax()
			} else {
				bindRelax()
				bindSecond()
			}
			if got := relax.PlanInfo().Conds[0].Filter != ""; got != tc.filtered {
				t.Errorf("%s (second bound first: %v): relax filtered = %v, want %v\n%s",
					tc.name, secondFirst, got, tc.filtered, relax.PlanInfo())
			}
		}
	}
}
