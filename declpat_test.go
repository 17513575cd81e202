package declpat_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"declpat"
	"declpat/internal/seq"
)

// TestPublicAPIQuickstart exercises the facade end to end: build a universe
// and graph, author the paper's pattern through the public combinators, run
// it with a public strategy, and verify.
func TestPublicAPIQuickstart(t *testing.T) {
	n, edges := declpat.RMAT(8, 8, declpat.WeightSpec{Min: 1, Max: 30}, 11)
	want := seq.Dijkstra(n, edges, 0)

	u := declpat.New(3, declpat.WithThreads(2))
	dist := declpat.NewBlockDist(n, 3)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())

	// Author the Fig. 2 pattern through the facade.
	p := declpat.NewPattern("SSSP")
	dmapProp := p.VertexProp("dist")
	wProp := p.EdgeProp("weight")
	relax := p.Action("relax", declpat.GenOutEdges())
	d := declpat.Add(dmapProp.At(declpat.AtV()), wProp.At(declpat.AtE()))
	relax.If(declpat.Lt(d, dmapProp.At(declpat.AtTrg()))).Set(dmapProp.At(declpat.AtTrg()), d)

	dmap := declpat.NewVertexWordMap(dist, declpat.Inf)
	bound, err := eng.Bind(p, declpat.Bindings{"dist": dmap, "weight": declpat.WeightMap(g)})
	if err != nil {
		t.Fatal(err)
	}
	fp := declpat.NewFixedPoint(bound.Action("relax"))
	u.Run(func(r *declpat.Rank) {
		var seeds []declpat.Vertex
		if g.Owner(0) == r.ID() {
			dmap.Set(r.ID(), 0, 0)
			seeds = []declpat.Vertex{0}
		}
		r.Barrier()
		fp.Run(r, seeds)
	})
	got := dmap.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = declpat.Inf
		}
		if got[v] != w {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], w)
		}
	}
}

// TestPublicAPIAlgorithms smoke-tests every packaged algorithm constructor
// through the facade on one small graph each.
func TestPublicAPIAlgorithms(t *testing.T) {
	n, edges := declpat.Torus2D(6, 6, declpat.WeightSpec{Min: 1, Max: 5}, 1)
	mk := func(gopts declpat.GraphOptions) (*declpat.Universe, *declpat.Engine, *declpat.LockMap, declpat.Distribution) {
		u := declpat.New(2, declpat.WithThreads(1))
		dist := declpat.NewCyclicDist(n, 2)
		g := declpat.BuildGraphParallel(dist, edges, gopts)
		lm := declpat.NewLockMap(dist, 1)
		return u, declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions()), lm, dist
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{})
		s := declpat.NewSSSP(eng).UseDelta(u, 4)
		u.Run(func(r *declpat.Rank) { s.Run(r, 0) })
		if s.Dist.Gather()[0] != 0 {
			t.Error("sssp source distance")
		}
	}
	{
		u, eng, lm, _ := mk(declpat.GraphOptions{Symmetrize: true})
		c := declpat.NewCC(eng, lm)
		u.Run(func(r *declpat.Rank) { c.Run(r) })
		comp := c.Comp.Gather()
		for v := range comp {
			if comp[v] != comp[0] {
				t.Fatal("torus should be one component")
			}
		}
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{Symmetrize: true})
		m := declpat.NewMIS(eng)
		u.Run(func(r *declpat.Rank) { m.Run(r) })
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{Bidirectional: true})
		pr := declpat.NewPageRank(eng, declpat.PageRankPull)
		pr.MaxIters = 3
		u.Run(func(r *declpat.Rank) { pr.Run(r) })
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{Symmetrize: true})
		kc := declpat.NewKCore(eng, 2)
		u.Run(func(r *declpat.Rank) { kc.Run(r) })
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{})
		b := declpat.NewBFSTree(eng)
		u.Run(func(r *declpat.Rank) { b.Run(r, 0) })
	}
	{
		u, eng, _, _ := mk(declpat.GraphOptions{})
		w := declpat.NewWidest(eng)
		dcount := declpat.NewDegreeCount(eng)
		u.Run(func(r *declpat.Rank) {
			w.Run(r, 0)
			dcount.Run(r)
		})
	}
}

// TestPublicAPITranslator round-trips the facade's GenerateGo.
func TestPublicAPITranslator(t *testing.T) {
	src, err := declpat.GenerateGo(declpat.SSSPPattern(), declpat.DefaultPlanOptions(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package out") || !strings.Contains(src, "atomic") && !strings.Contains(src, "Min") {
		t.Fatalf("unexpected generated source header")
	}
}

// TestPublicAPIStats exercises the workload helpers.
func TestPublicAPIStats(t *testing.T) {
	edges := declpat.SmallWorld(50, 4, 0.2, declpat.WeightSpec{Min: 1, Max: 3}, 4)
	s := declpat.StatsOf(50, edges)
	if s.Edges != 100 || s.Vertices != 50 {
		t.Fatalf("%+v", s)
	}
	if s.MinW < 1 || s.MaxW > 3 {
		t.Fatalf("weights %+v", s)
	}
}

// TestPublicAPICodecSeam exercises the exported message-type and codec
// surface: RegisterMsgType with options, the fixed codec constructor, and
// WithWire's refusal of a type the fixed codec cannot carry, all without
// touching internal/am.
func TestPublicAPICodecSeam(t *testing.T) {
	type pair struct {
		V declpat.Vertex
		D int64
	}
	if !declpat.HasFixedLayout[pair]() {
		t.Fatal("pair should have a fixed layout")
	}
	if declpat.HasFixedLayout[struct{ S string }]() {
		t.Fatal("string payloads must not qualify for the fixed codec")
	}

	run := func(opt declpat.MsgOption[pair]) int64 {
		u := declpat.New(2, declpat.WithThreads(1), declpat.WithCoalesce(8))
		var sum int64
		var mu sync.Mutex
		opts := []declpat.MsgOption[pair]{
			declpat.WithAddresser[pair](func(m pair) int { return int(m.V) % 2 }),
		}
		if opt != nil {
			opts = append(opts, opt)
		}
		mt := declpat.RegisterMsgType(u, "pair", func(r *declpat.Rank, m pair) {
			mu.Lock()
			sum += int64(m.V) + m.D
			mu.Unlock()
		}, opts...)
		if err := u.Run(func(r *declpat.Rank) {
			r.Epoch(func(ep *declpat.EpochHandle) {
				for i := 0; i < 50; i++ {
					mt.Send(r, pair{V: declpat.Vertex(i), D: int64(i) * 3})
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
		return sum
	}

	fixed, err := declpat.FixedCodec[pair]()
	if err != nil {
		t.Fatal(err)
	}
	base := run(nil)
	for name, opt := range map[string]declpat.MsgOption[pair]{
		"wire-auto":   declpat.WithWire[pair](),
		"codec-fixed": declpat.WithCodec(fixed),
	} {
		if got := run(opt); got != base {
			t.Fatalf("%s: sum = %d, want %d", name, got, base)
		}
	}

	// WithWire refuses a non-fixed-layout payload at registration, before
	// Run, and the panic names the payload type.
	type tagged struct{ Tag string }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "tagged") {
			t.Fatalf("WithWire on a string payload: recovered %v, want a panic naming the type", r)
		}
	}()
	declpat.RegisterMsgType(declpat.New(1), "notes", func(*declpat.Rank, tagged) {}, declpat.WithWire[tagged]())
}
