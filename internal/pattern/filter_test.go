package pattern

import (
	"fmt"
	"sync/atomic"
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
			if f.ranks[i].t.best != nil {
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
			checkListed(t, fmt.Sprintf("rank %d", rank), &f.ranks[rank].t)
		}
	}
}

// checkListed asserts that touched[:n] names exactly the entries of b that
// hold a bound.
func checkListed(t *testing.T, name string, b *bounds) {
	t.Helper()
	listed := map[distgraph.Vertex]bool{}
	for _, v := range b.touched[:b.n] {
		if listed[v] {
			t.Errorf("%s: vertex %d listed twice", name, v)
		}
		listed[v] = true
	}
	for v := range b.best {
		if has := b.best[v] != noBound; has != listed[distgraph.Vertex(v)] {
			t.Errorf("%s: vertex %d holds a bound = %v, listed = %v", name, v, has, listed[distgraph.Vertex(v)])
		}
	}
}

// checkBounds asserts, between epochs, that every bound a table recorded in
// the attempt each rank is in bounds the map's final value: an attempt was
// never answered from a bound the map could still beat. It returns the
// attempts the local tables have answered so far.
func (e filterEnv) checkBounds(t *testing.T) (skipped int64) {
	t.Helper()
	final := e.dmap.Gather()
	check := func(name string, f *filter, b *bounds) {
		checkListed(t, name, b)
		for _, v := range b.touched[:b.n] {
			if final[v]^f.flip > b.best[v] {
				t.Errorf("%s: vertex %d bounded by %d, final value %d", name, v, b.best[v]^f.flip, final[v])
			}
		}
	}
	for rank := range e.eng.slots {
		at := e.u.EpochAttempt(rank)
		for i := range e.eng.slots[rank] {
			lb := &e.eng.slots[rank][i].lb
			skipped += lb.skipped
			if lb.key.f != nil && lb.key.stamp == at {
				check(fmt.Sprintf("rank %d slot %d", rank, i), lb.key.f, &lb.bounds)
			}
		}
		for _, f := range e.eng.filters {
			if fr := &f.ranks[rank]; fr.stamp.Load() == at && fr.gen.Load() != 0 {
				check(fmt.Sprintf("rank %d offers", rank), f, &fr.t)
			}
		}
	}
	return skipped
}

// TestFilterBoundsInPlace: a run answers an in-place relaxation that cannot
// beat its bound table without touching the shared word, and the table holds
// only true bounds. On chan 2×2 every hop is applied in place (local, or
// Direct in the co-resident owner's shard); on unix 2×1 local hops are and
// the rest are mailed through the offer table. After each of three solves
// every bound recorded in the last attempt is at least the map's final value
// and the answers equal the oracle; over the run some attempt was answered
// from a table. A table then forgets at a new attempt and when user code
// writes the map.
func TestFilterBoundsInPlace(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{Min: 1, Max: 50}, 11)
	for _, tc := range []struct {
		name    string
		threads int
		unix    bool
	}{{"chan/2x2", 2, false}, {"unix/2x1", 1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []am.Option{am.WithThreads(tc.threads)}
			if tc.unix {
				opts = append(opts, am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix", Dir: t.TempDir()})))
			}
			e := newFilterEnv(t, am.New(2, opts...), n, edges)
			var skipped int64
			if err := e.u.Run(func(r *am.Rank) {
				for _, src := range []distgraph.Vertex{0, 3, 0} {
					e.solve(r, src)
					r.Barrier()
					if r.ID() == 0 {
						skipped = e.checkBounds(t)
						got, want := e.dmap.Gather(), seq.Dijkstra(n, edges, src)
						for v := range want {
							if w := want[v]; got[v] != w && !(w == seq.Inf && got[v] == Inf) {
								t.Errorf("source %d: dist[%d] = %d, want %d", src, v, got[v], w)
							}
						}
					}
					r.Barrier()
				}
			}); err != nil {
				t.Fatal(err)
			}
			if skipped == 0 {
				t.Error("no in-place attempt was answered from a bound table")
			}

			// Forgetting, on a table the last solve filled.
			var s *boundSlot
			rank := 0
			for r := range e.eng.slots {
				for i := range e.eng.slots[r] {
					if lb := &e.eng.slots[r][i].lb; lb.n > 0 && s == nil {
						s, rank = &e.eng.slots[r][i], r
					}
				}
			}
			if s == nil {
				t.Fatal("no bound table holds a bound")
			}
			f, stamp := s.lb.key.f, s.lb.key.stamp
			c := &cursor{stamp: stamp + 1, slot: s}
			if lb := e.eng.localBounds(c, rank, f, s.lb.key.gen); lb.n != 0 {
				t.Errorf("a new attempt kept %d bounds", lb.n)
			}
			checkListed(t, "after a new attempt", &s.lb.bounds)
			w := distgraph.Vertex(0)
			at := e.eng.site(w)
			lb := e.eng.localBounds(c, rank, f, f.vw.Gen())
			if lb.fails(e.dmap.Get(at.rank, w), w) {
				t.Fatal("an empty table answered an attempt")
			}
			lb.apply(e.dmap.Get(at.rank, w), w, at)
			if lb.n != 1 {
				t.Fatalf("an attempt recorded %d bounds, want 1", lb.n)
			}
			e.dmap.Set(at.rank, w, e.dmap.Get(at.rank, w))
			if lb := e.eng.localBounds(c, rank, f, f.vw.Gen()); lb.n != 0 {
				t.Errorf("a write by user code kept %d bounds", lb.n)
			}
			checkListed(t, "after a write", &s.lb.bounds)
		})
	}
}

// TestFilterForgetsOutOfBandWrite: user code that raises a filtered map
// inside an epoch voids what the ranks offered before. With a fault plan
// every hop is mailed: rank 0 offers vertex 3 the value 1; the owner's work
// hook raises dist[3] back to Inf with Set and has rank 0 relax vertex 0
// again. The second offer of the same value must be sent and applied.
func TestFilterForgetsOutOfBandWrite(t *testing.T) {
	e := newFilterEnv(t, am.New(2, am.WithFaultPlan(&am.FaultPlan{})), 4, []distgraph.Edge{{Src: 0, Dst: 3, W: 1}})
	var raised atomic.Bool
	e.relax.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		if v == 3 && !raised.Swap(true) {
			e.dmap.Set(r.ID(), 3, Inf)
			e.relax.InvokeAsync(r, 0)
		}
	})
	if err := e.u.Run(func(r *am.Rank) { e.solve(r, 0) }); err != nil {
		t.Fatal(err)
	}
	if !raised.Load() {
		t.Fatal("the first offer was never applied")
	}
	if got := e.dmap.Gather()[3]; got != 1 {
		t.Errorf("dist[3] = %d, want 1: the offer after the raise was dropped", got)
	}
	s := &e.relax.Stats
	if f, c := s.FilteredHops.Load(), s.ModsChanged.Load(); f != 0 || c != 2 {
		t.Errorf("FilteredHops = %d, ModsChanged = %d; want 0 and 2", f, c)
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
