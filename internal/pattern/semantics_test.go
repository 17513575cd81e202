package pattern

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
)

// This file encodes the paper's §III-C synchronization guarantees as tests:
//
//  1. every modification is atomic;
//  2. in every condition, the first modification synchronizes with the reads
//     of property values indexed by the same vertex;
//  3. reads at other vertices are NOT synchronized (stale values are
//     permitted) — the framework stays correct for monotone algorithms but
//     makes no stronger promise.

// TestSemanticsFirstModificationSynchronized hammers one vertex with
// concurrent conditional increments; guarantee (2) makes the
// read-test-write atomic, so the final value is exact.
func TestSemanticsFirstModificationSynchronized(t *testing.T) {
	const n = 4
	u := am.New(2, am.WithThreads(4))
	d := distgraph.NewBlockDist(n, 2)
	// Star onto vertex 3: every other vertex has 64 parallel edges to it.
	var edges []distgraph.Edge
	for src := 0; src < 3; src++ {
		for k := 0; k < 64; k++ {
			edges = append(edges, distgraph.Edge{Src: distgraph.Vertex(src), Dst: 3, W: 1})
		}
	}
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())

	p := New("Inc")
	x := p.VertexProp("x")
	cap_ := p.VertexProp("cap")
	a := p.Action("inc", OutEdges())
	// if (x[trg] < cap[trg]) x[trg] = x[trg] + 1 — a two-value condition
	// at the same vertex: lock path, exact counting required.
	a.If(Lt(x.At(Trg()), cap_.At(Trg()))).
		Set(x.At(Trg()), Add(x.At(Trg()), C(1)))
	xm := pmap.NewVertexWord(d, 0)
	cm := pmap.NewVertexWord(d, 150)
	bound, err := eng.Bind(p, Bindings{"x": xm, "cap": cm})
	if err != nil {
		t.Fatal(err)
	}
	inc := bound.Action("inc")
	u.Run(func(r *am.Rank) {
		r.Epoch(func(ep *am.Epoch) {
			lg := g.Local(r.ID())
			for li := 0; li < lg.NumLocal(); li++ {
				inc.Invoke(r, g.Dist().Global(r.ID(), li))
			}
		})
	})
	// 192 increment attempts against a cap of 150: exactly 150 land.
	if got := xm.Get(d.Owner(3), 3); got != 150 {
		t.Fatalf("x[3] = %d, want exactly 150 (first-modification synchronization)", got)
	}
	if inc.PlanInfo().Conds[0].Sync != "lock" {
		t.Fatalf("two-value condition must use the lock map")
	}
}

// TestSemanticsAtomicModifications: guarantee (1) — concurrent set inserts
// and adds from many handler threads never lose updates.
func TestSemanticsAtomicModifications(t *testing.T) {
	const n = 64
	u := am.New(4, am.WithThreads(4))
	d := distgraph.NewBlockDist(n, 4)
	edges := gen.ER(n, 2000, gen.Weights{}, 3)
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())

	p := New("Acc")
	total := p.VertexProp("total")
	preds := p.VertexSetProp("preds")
	a := p.Action("acc", OutEdges())
	a.Do().AddTo(total.At(Trg()), C(1)).Insert(preds.At(Trg()), Vtx(Src()))
	tm := pmap.NewVertexWord(d, 0)
	pm := pmap.NewVertexSet(d, lm)
	bound, err := eng.Bind(p, Bindings{"total": tm, "preds": pm})
	if err != nil {
		t.Fatal(err)
	}
	acc := bound.Action("acc")
	u.Run(func(r *am.Rank) {
		r.Epoch(func(ep *am.Epoch) {
			lg := g.Local(r.ID())
			for li := 0; li < lg.NumLocal(); li++ {
				acc.Invoke(r, g.Dist().Global(r.ID(), li))
			}
		})
	})
	wantTotal := make([]int64, n)
	wantPreds := make([]map[distgraph.Vertex]bool, n)
	for i := range wantPreds {
		wantPreds[i] = map[distgraph.Vertex]bool{}
	}
	for _, e := range edges {
		wantTotal[e.Dst]++
		wantPreds[e.Dst][e.Src] = true
	}
	for v := 0; v < n; v++ {
		vr := d.Owner(distgraph.Vertex(v))
		if got := tm.Get(vr, distgraph.Vertex(v)); got != wantTotal[v] {
			t.Fatalf("total[%d] = %d, want %d (lost atomic add)", v, got, wantTotal[v])
		}
		if got := pm.Len(vr, distgraph.Vertex(v)); got != len(wantPreds[v]) {
			t.Fatalf("preds[%d] has %d members, want %d", v, got, len(wantPreds[v]))
		}
	}
}

// TestSemanticsRemoteReadsUnsynchronized documents guarantee (3): a value
// read at the input vertex and carried to a remote modification can be
// stale. The test builds a copy pattern where src values change concurrently
// and asserts only the weaker property that every written value WAS a value
// of the source at some point — not necessarily the latest.
func TestSemanticsRemoteReadsUnsynchronized(t *testing.T) {
	const n = 8
	u := am.New(2, am.WithThreads(2))
	d := distgraph.NewBlockDist(n, 2)
	edges := gen.Path(n, gen.Weights{}, 0)
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())

	p := New("Copy")
	src := p.VertexProp("src")
	dst := p.VertexProp("dst")
	a := p.Action("copy", OutEdges())
	a.If(Ge(src.At(V()), C(0))).Set(dst.At(Trg()), src.At(V()))
	sm := pmap.NewVertexWord(d, 0)
	dm := pmap.NewVertexWord(d, -1)
	bound, err := eng.Bind(p, Bindings{"src": sm, "dst": dm})
	if err != nil {
		t.Fatal(err)
	}
	cp := bound.Action("copy")
	var legalValues [2]int64
	legalValues[0], legalValues[1] = 10, 20
	u.Run(func(r *am.Rank) {
		r.Epoch(func(ep *am.Epoch) {
			lg := g.Local(r.ID())
			for li := 0; li < lg.NumLocal(); li++ {
				v := g.Dist().Global(r.ID(), li)
				sm.Set(r.ID(), v, legalValues[0])
				cp.Invoke(r, v)
				sm.Set(r.ID(), v, legalValues[1])
				cp.Invoke(r, v)
			}
		})
	})
	for v := 1; v < n; v++ {
		got := dm.Get(d.Owner(distgraph.Vertex(v)), distgraph.Vertex(v))
		if got != 10 && got != 20 {
			t.Fatalf("dst[%d] = %d: written value was never a source value", v, got)
		}
	}
}

// TestSemanticsLockGranularities: §IV-B's lock-map parameterization — the
// synchronized-counting test stays exact under coarse lock blocks too.
func TestSemanticsLockGranularities(t *testing.T) {
	for _, gran := range []int{1, 8, 1 << 20} {
		const n = 4
		u := am.New(1, am.WithThreads(4))
		d := distgraph.NewBlockDist(n, 1)
		var edges []distgraph.Edge
		for k := 0; k < 200; k++ {
			edges = append(edges, distgraph.Edge{Src: distgraph.Vertex(k % 3), Dst: 3, W: 1})
		}
		g := distgraph.Build(d, edges, distgraph.Options{})
		lm := pmap.NewLockMap(d, gran)
		eng := NewEngine(u, g, lm, DefaultPlanOptions())
		p := New("Inc")
		x := p.VertexProp("x")
		capP := p.VertexProp("cap")
		a := p.Action("inc", OutEdges())
		a.If(Lt(x.At(Trg()), capP.At(Trg()))).Set(x.At(Trg()), Add(x.At(Trg()), C(1)))
		xm := pmap.NewVertexWord(d, 0)
		cm := pmap.NewVertexWord(d, 120)
		bound, err := eng.Bind(p, Bindings{"x": xm, "cap": cm})
		if err != nil {
			t.Fatal(err)
		}
		inc := bound.Action("inc")
		u.Run(func(r *am.Rank) {
			r.Epoch(func(ep *am.Epoch) {
				for li := 0; li < g.Local(0).NumLocal(); li++ {
					inc.Invoke(r, distgraph.Vertex(li))
				}
			})
		})
		if got := xm.Get(0, 3); got != 120 {
			t.Fatalf("granularity %d: x[3] = %d, want 120", gran, got)
		}
	}
}

// TestSemanticsElisionAcrossSkippedHops: a condition may reuse a word an
// earlier condition gathered only if every path into it gathered the word.
// Each row's first condition takes a path that skips the hop loading x[trg(e)]
// — an atomic eval hop (which applies its update without loading), an early
// exit, a NIL locality — and the second condition copies x[trg(e)] to z. A
// sequential reading copies the stored value on every path.
func TestSemanticsElisionAcrossSkippedHops(t *testing.T) {
	rows := []struct {
		name  string
		first func(a *Action, x, y, w, p *Prop)
	}{
		{"atomic", func(a *Action, x, y, w, p *Prop) {
			a.If(Lt(Add(x.At(V()), w.At(E())), x.At(Trg()))).Set(x.At(Trg()), Add(x.At(V()), w.At(E())))
		}},
		{"early-exit", func(a *Action, x, y, w, p *Prop) {
			a.If(And(Lt(w.At(E()), C(0)), Lt(x.At(Trg()), C(100)))).Set(y.At(Trg()), C(1))
		}},
		{"nil-locality", func(a *Action, x, y, w, p *Prop) {
			a.If(Lt(y.AtVal(p.At(V())), x.At(Trg()))).Set(y.At(Trg()), C(1))
		}},
	}
	for _, row := range rows {
		for _, ranks := range []int{1, 2} {
			u := am.New(ranks)
			d := distgraph.NewBlockDist(2, ranks)
			g := distgraph.Build(d, []distgraph.Edge{{Src: 0, Dst: 1, W: 3}}, distgraph.Options{})
			lm := pmap.NewLockMap(d, 1)
			opts := DefaultPlanOptions()
			opts.Direct = false
			eng := NewEngine(u, g, lm, opts)
			p := New("Elide")
			x, y, z, pp := p.VertexProp("x"), p.VertexProp("y"), p.VertexProp("z"), p.VertexProp("p")
			w := p.EdgeProp("w")
			a := p.Action("act", OutEdges())
			row.first(a, x, y, w, pp)
			a.Do().Set(z.At(Trg()), x.At(Trg()))
			xm := pmap.NewVertexWord(d, 10)
			xm.Set(d.Owner(0), 0, 0)
			zm := pmap.NewVertexWord(d, -7)
			bound, err := eng.Bind(p, Bindings{"x": xm, "y": pmap.NewVertexWord(d, 0), "z": zm,
				"p": pmap.NewVertexWord(d, NilWord), "w": pmap.WeightMap(g)})
			if err != nil {
				t.Fatal(err)
			}
			act := bound.Action("act")
			u.Run(func(r *am.Rank) {
				r.Epoch(func(*am.Epoch) {
					if d.Owner(0) == r.ID() {
						act.Invoke(r, 0)
					}
				})
			})
			want := xm.Get(d.Owner(1), 1)
			if got := zm.Get(d.Owner(1), 1); got != want {
				t.Errorf("%s, %d ranks: z[1] = %d, want x[1] = %d\n%s", row.name, ranks, got, want, act.PlanInfo())
			}
		}
	}
}

// TestSemanticsEdgeWordMinUnderLock: a min, max or add whose target is an
// edge word is applied under the lock map — §IV-B's instructions act on
// vertex words and sets — and lands exactly.
func TestSemanticsEdgeWordMinUnderLock(t *testing.T) {
	u := am.New(1)
	d := distgraph.NewBlockDist(4, 1)
	g := distgraph.Build(d, gen.Path(4, gen.Weights{Min: 5, Max: 5}, 0), distgraph.Options{})
	eng := NewEngine(u, g, pmap.NewLockMap(d, 1), DefaultPlanOptions())
	p := New("Clamp")
	w := p.EdgeProp("w")
	p.Action("clamp", OutEdges()).Do().SetMin(w.At(E()), C(2))
	wm := pmap.WeightMap(g)
	bound, err := eng.Bind(p, Bindings{"w": wm})
	if err != nil {
		t.Fatal(err)
	}
	clamp := bound.Action("clamp")
	if s := clamp.PlanInfo().Conds[0].Sync; s != "lock" {
		t.Fatalf("sync = %s, want lock", s)
	}
	if err := u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			for v := 0; v < 4; v++ {
				clamp.Invoke(r, distgraph.Vertex(v))
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if got := clamp.Stats.ModsChanged.Load(); got != 3 {
		t.Fatalf("%d weights clamped, want the path's 3", got)
	}
}
