package strategy_test

import (
	"testing"
	"testing/quick"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
	"declpat/internal/strategy"
)

// ssspPattern is the paper's Fig. 2 pattern.
func ssspPattern() *pattern.Pattern {
	p := pattern.New("SSSP")
	dist := p.VertexProp("dist")
	weight := p.EdgeProp("weight")
	relax := p.Action("relax", pattern.OutEdges())
	d := pattern.Add(dist.At(pattern.V()), weight.At(pattern.E()))
	relax.If(pattern.Lt(d, dist.At(pattern.Trg()))).Set(dist.At(pattern.Trg()), d)
	return p
}

type ssspRig struct {
	u     *am.Universe
	g     *distgraph.Graph
	dmap  *pmap.VertexWord
	relax *pattern.BoundAction
}

func newSSSPRig(u *am.Universe, n int, edges []distgraph.Edge) *ssspRig {
	dist := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(dist, edges, distgraph.Options{})
	lm := pmap.NewLockMap(dist, 1)
	eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
	dmap := pmap.NewVertexWord(dist, pattern.Inf)
	bound, err := eng.Bind(ssspPattern(), pattern.Bindings{"dist": dmap, "weight": pmap.WeightMap(g)})
	if err != nil {
		panic(err)
	}
	return &ssspRig{u: u, g: g, dmap: dmap, relax: bound.Action("relax")}
}

func (rig *ssspRig) check(t *testing.T, want []int64, label string) {
	t.Helper()
	got := rig.dmap.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = pattern.Inf
		}
		if got[v] != w {
			t.Fatalf("%s: dist[%d] = %d, want %d", label, v, got[v], w)
		}
	}
}

func seedBody(rig *ssspRig, src distgraph.Vertex) func(r *am.Rank) []distgraph.Vertex {
	return func(r *am.Rank) []distgraph.Vertex {
		if rig.g.Owner(src) == r.ID() {
			rig.dmap.Set(r.ID(), src, 0)
			return []distgraph.Vertex{src}
		}
		return nil
	}
}

func TestFixedPointSSSP(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 40}, 21)
	want := seq.Dijkstra(n, edges, 0)
	for _, newU := range []func() *am.Universe{
		func() *am.Universe { return am.New(1) },
		func() *am.Universe { return am.New(4, am.WithThreads(2)) },
		func() *am.Universe { return am.New(2, am.WithThreads(1), am.WithDetector(am.DetectorFourCounter)) },
	} {
		rig := newSSSPRig(newU(), n, edges)
		fp := strategy.NewFixedPoint(rig.relax)
		seeds := seedBody(rig, 0)
		rig.u.Run(func(r *am.Rank) {
			s := seeds(r)
			r.Barrier()
			fp.Run(r, s)
		})
		rig.check(t, want, "fixed_point")
	}
}

func TestDeltaSSSP(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 40}, 33)
	want := seq.Dijkstra(n, edges, 0)
	for _, delta := range []int64{1, 5, 25, 1000000} {
		for _, sh := range []struct{ ranks, threads int }{{1, 1}, {3, 2}} {
			rig := newSSSPRig(am.New(sh.ranks, am.WithThreads(sh.threads)), n, edges)
			d := strategy.NewDelta(rig.u, rig.relax, rig.dmap, delta)
			seeds := seedBody(rig, 0)
			rig.u.Run(func(r *am.Rank) {
				s := seeds(r)
				r.Barrier()
				d.Run(r, s)
			})
			rig.check(t, want, "delta")
			if delta == 1 && d.BucketEpochs < 2 {
				t.Errorf("delta=1: expected multiple bucket epochs, got %d", d.BucketEpochs)
			}
			if delta == 1000000 && d.BucketEpochs != 1 {
				t.Errorf("delta=inf: expected a single bucket epoch, got %d", d.BucketEpochs)
			}
		}
	}
}

func TestDeltaDistributedSSSP(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 40}, 44)
	want := seq.Dijkstra(n, edges, 0)
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		rig := newSSSPRig(am.New(2, am.WithThreads(2), am.WithDetector(det)), n, edges)
		dd := strategy.NewDeltaDistributed(rig.u, rig.relax, rig.dmap, 20, 3)
		seeds := seedBody(rig, 0)
		rig.u.Run(func(r *am.Rank) {
			s := seeds(r)
			r.Barrier()
			dd.Run(r, s)
		})
		rig.check(t, want, "delta-distributed/"+det.String())
	}
}

func TestOnceReachesFixedPoint(t *testing.T) {
	// cap action: if x > 0 then x = x - 1; Once returns true while any
	// vertex still decrements.
	const n = 12
	u := am.New(3, am.WithThreads(1))
	dist := distgraph.NewBlockDist(n, 3)
	g := distgraph.Build(dist, gen.Path(n, gen.Weights{}, 0), distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())

	p := pattern.New("Dec")
	x := p.VertexProp("x")
	a := p.Action("dec", pattern.None())
	a.If(pattern.Gt(x.At(pattern.V()), pattern.C(0))).
		Set(x.At(pattern.V()), pattern.Sub(x.At(pattern.V()), pattern.C(1)))
	xmap := pmap.NewVertexWord(dist, 0)
	bound, err := eng.Bind(p, pattern.Bindings{"x": xmap})
	if err != nil {
		t.Fatal(err)
	}
	dec := bound.Action("dec")

	rounds := make([]int, 3)
	u.Run(func(r *am.Rank) {
		// x[v] = v % 4: needs exactly 3 rounds to reach zero, plus one
		// round to observe the fixed point.
		xmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
			xmap.Set(r.ID(), v, int64(v)%4)
		})
		r.Barrier()
		var locals []distgraph.Vertex
		lg := g.Local(r.ID())
		for li := 0; li < lg.NumLocal(); li++ {
			locals = append(locals, g.Dist().Global(r.ID(), li))
		}
		n := 0
		for strategy.Once(r, dec, locals) {
			n++
			if n > 10 {
				t.Errorf("once did not converge")
				break
			}
		}
		rounds[r.ID()] = n
	})
	for r, n := range rounds {
		if n != 3 {
			t.Fatalf("rank %d: %d decrement rounds, want 3", r, n)
		}
	}
	for v, xv := range xmap.Gather() {
		if xv != 0 {
			t.Fatalf("x[%d]=%d", v, xv)
		}
	}
}

func TestBucketsBasics(t *testing.T) {
	u := am.New(1)
	u.Run(func(r *am.Rank) {
		b := strategy.NewBuckets(r, 10)
		if b.MinNonEmpty() != strategy.NoBucket {
			t.Error("fresh buckets should be empty")
		}
		b.Insert(1, 5)   // bucket 0
		b.Insert(2, 15)  // bucket 1
		b.Insert(3, 105) // bucket 10
		b.Insert(4, 0)   // bucket 0
		if b.MinNonEmpty() != 0 {
			t.Errorf("min = %d", b.MinNonEmpty())
		}
		if b.Len(0) != 2 || b.Len(1) != 1 || b.Len(10) != 1 {
			t.Errorf("lens: %d %d %d", b.Len(0), b.Len(1), b.Len(10))
		}
		seen := map[distgraph.Vertex]bool{}
		for {
			v, ok := b.Pop(0)
			if !ok {
				break
			}
			seen[v] = true
		}
		if !seen[1] || !seen[4] || len(seen) != 2 {
			t.Errorf("popped %v", seen)
		}
		if b.MinNonEmpty() != 1 {
			t.Errorf("min after drain = %d", b.MinNonEmpty())
		}
		if b.Index(-3) != 0 {
			t.Error("negative keys clamp to bucket 0")
		}
	})
}

// lhPattern builds the light/heavy pattern pair directly (mirroring
// algorithms.SSSPLightHeavyPattern) for strategy-level testing.
func lhPattern(delta int64) *pattern.Pattern {
	p := pattern.New("LH")
	dist := p.VertexProp("dist")
	weight := p.EdgeProp("weight")
	mk := func(name string, guard pattern.Expr) {
		a := p.Action(name, pattern.OutEdges())
		d := pattern.Add(dist.At(pattern.V()), weight.At(pattern.E()))
		a.If(pattern.And(guard, pattern.Lt(d, dist.At(pattern.Trg())))).
			Set(dist.At(pattern.Trg()), d)
	}
	mk("light", pattern.Lt(weight.At(pattern.E()), pattern.C(delta)))
	mk("heavy", pattern.Ge(weight.At(pattern.E()), pattern.C(delta)))
	return p
}

func TestDeltaLightHeavyStrategy(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 80}, 55)
	want := seq.Dijkstra(n, edges, 0)
	const delta = 20
	u := am.New(3, am.WithThreads(2))
	d := distgraph.NewBlockDist(n, 3)
	g := distgraph.Build(d, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), pattern.DefaultPlanOptions())
	dmap := pmap.NewVertexWord(d, pattern.Inf)
	bound, err := eng.Bind(lhPattern(delta), pattern.Bindings{"dist": dmap, "weight": pmap.WeightMap(g)})
	if err != nil {
		t.Fatal(err)
	}
	lh := strategy.NewDeltaLightHeavy(u, bound.Action("light"), bound.Action("heavy"), dmap, delta)
	u.Run(func(r *am.Rank) {
		var seeds []distgraph.Vertex
		if g.Owner(0) == r.ID() {
			dmap.Set(r.ID(), 0, 0)
			seeds = []distgraph.Vertex{0}
		}
		r.Barrier()
		lh.Run(r, seeds)
	})
	got := dmap.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = pattern.Inf
		}
		if got[v] != w {
			t.Fatalf("dist[%d]=%d want %d", v, got[v], w)
		}
	}
	if lh.BucketEpochs < 2 {
		t.Fatalf("bucket epochs = %d", lh.BucketEpochs)
	}
}

// Property: pops return exactly the inserted multiset per bucket, across
// random insert/pop interleavings.
func TestBucketsQuick(t *testing.T) {
	u := am.New(1)
	u.Run(func(r *am.Rank) {
		f := func(keys []uint16) bool {
			b := strategy.NewBuckets(r, 7)
			want := map[int]int{}
			for i, k := range keys {
				b.Insert(distgraph.Vertex(i), int64(k))
				want[int(int64(k)/7)]++
			}
			for idx, n := range want {
				if b.Len(idx) != n {
					return false
				}
				for i := 0; i < n; i++ {
					if _, ok := b.Pop(idx); !ok {
						return false
					}
				}
				if _, ok := b.Pop(idx); ok {
					return false
				}
			}
			return b.MinNonEmpty() == strategy.NoBucket
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Error(err)
		}
	})
}

// Property-style check: Δ-stepping with any Δ equals Dijkstra on several
// random graphs.
func TestDeltaSweepAgainstDijkstra(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		edges := gen.ER(64, 400, gen.Weights{Min: 1, Max: 9}, seed)
		want := seq.Dijkstra(64, edges, 0)
		for _, delta := range []int64{1, 3, 9, 100} {
			rig := newSSSPRig(am.New(2, am.WithThreads(1)), 64, edges)
			d := strategy.NewDelta(rig.u, rig.relax, rig.dmap, delta)
			seeds := seedBody(rig, 0)
			rig.u.Run(func(r *am.Rank) {
				s := seeds(r)
				r.Barrier()
				d.Run(r, s)
			})
			rig.check(t, want, "sweep")
		}
	}
}
