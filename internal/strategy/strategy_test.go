package strategy_test

import (
	"fmt"
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
	eng   *pattern.Engine
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
	return &ssspRig{u: u, g: g, eng: eng, dmap: dmap, relax: bound.Action("relax")}
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

// TestDeltaSSSP: Δ-stepping equals Dijkstra in every shape the strategy
// takes — per-rank buckets (one thread, Fig. 1), per-thread buckets (§III-D)
// under both detectors, the light/heavy split (§II-A) and both at once — and
// its bucket epochs follow Δ: Δ = 1 needs several, Δ = ∞ exactly one.
func TestDeltaSSSP(t *testing.T) {
	type graph struct {
		name  string
		n     int
		edges []distgraph.Edge
	}
	rmat := func(seed uint64, maxW int64) graph {
		n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: maxW}, seed)
		return graph{fmt.Sprintf("rmat%d", seed), n, edges}
	}
	type cell struct {
		g               graph
		ranks, hthreads int // universe shape: ranks × handler threads
		det             am.DetectorKind
		delta           int64
		threads         int  // the strategy's body threads per rank
		lightHeavy      bool // split light and heavy edges
		minEpochs       int  // at least this many bucket epochs
		maxEpochs       int  // at most this many (0: unbounded)
	}
	var cells []cell
	g33 := rmat(33, 40)
	for _, delta := range []int64{1, 5, 25, 1000000} {
		for _, sh := range []struct{ ranks, threads int }{{1, 1}, {3, 2}} {
			c := cell{g: g33, ranks: sh.ranks, hthreads: sh.threads, delta: delta, threads: 1}
			switch delta {
			case 1:
				c.minEpochs = 2
			case 1000000:
				c.minEpochs, c.maxEpochs = 1, 1
			}
			cells = append(cells, c)
		}
	}
	g44 := rmat(44, 40)
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		cells = append(cells, cell{g: g44, ranks: 2, hthreads: 2, det: det, delta: 20, threads: 3})
	}
	g55 := rmat(55, 80)
	for _, threads := range []int{1, 3} {
		cells = append(cells, cell{g: g55, ranks: 3, hthreads: 2, delta: 20, threads: threads, lightHeavy: true, minEpochs: 2})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g := graph{fmt.Sprintf("er%d", seed), 64, gen.ER(64, 400, gen.Weights{Min: 1, Max: 9}, seed)}
		for _, delta := range []int64{1, 3, 9, 100} {
			cells = append(cells, cell{g: g, ranks: 2, hthreads: 1, delta: delta, threads: 1})
		}
	}
	for _, c := range cells {
		name := fmt.Sprintf("%s/%dx%d/%s/delta=%d/threads=%d", c.g.name, c.ranks, c.hthreads, c.det, c.delta, c.threads)
		if c.lightHeavy {
			name += "/light-heavy"
		}
		t.Run(name, func(t *testing.T) {
			rig := newSSSPRig(am.New(c.ranks, am.WithThreads(c.hthreads), am.WithDetector(c.det)), c.g.n, c.g.edges)
			a, heavy := rig.relax, (*pattern.BoundAction)(nil)
			if c.lightHeavy {
				bound, err := rig.eng.Bind(lhPattern(c.delta), pattern.Bindings{"dist": rig.dmap, "weight": pmap.WeightMap(rig.g)})
				if err != nil {
					t.Fatal(err)
				}
				a, heavy = bound.Action("light"), bound.Action("heavy")
			}
			d := strategy.NewDelta(rig.u, a, heavy, rig.dmap, c.delta, c.threads)
			seeds := seedBody(rig, 0)
			if err := rig.u.Run(func(r *am.Rank) {
				s := seeds(r)
				r.Barrier()
				d.Run(r, s)
			}); err != nil {
				t.Fatal(err)
			}
			rig.check(t, seq.Dijkstra(c.g.n, c.g.edges, 0), "delta")
			if d.BucketEpochs < c.minEpochs || c.maxEpochs > 0 && d.BucketEpochs > c.maxEpochs {
				t.Errorf("%d bucket epochs, want %d..%d (0: unbounded)", d.BucketEpochs, c.minEpochs, c.maxEpochs)
			}
		})
	}
}
