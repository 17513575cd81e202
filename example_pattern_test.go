package declpat_test

import (
	"fmt"

	"declpat"
)

// ExampleNewPattern writes one pattern in the whole language — every
// generator, locality designator and expression combinator the package
// exports — binds it, and runs its actions on a six-vertex graph split over
// two ranks. The printed table is checked by hand against the graph drawn
// below.
func ExampleNewPattern() {
	// 0 -4-> 1 -1-> 3 -3-> 4 -1-> 5
	// 0 -1-> 2 -2-> 1      3 <-1- 5
	//        2 -5-> 3
	edges := []declpat.Edge{
		{Src: 0, Dst: 1, W: 4}, {Src: 0, Dst: 2, W: 1}, {Src: 2, Dst: 1, W: 2},
		{Src: 1, Dst: 3, W: 1}, {Src: 2, Dst: 3, W: 5}, {Src: 3, Dst: 4, W: 3},
		{Src: 4, Dst: 5, W: 1}, {Src: 5, Dst: 3, W: 1},
	}
	const n, ranks = 6, 2
	u := declpat.New(ranks, declpat.WithThreads(1))
	d := declpat.NewBlockDist(n, ranks)
	g := declpat.BuildGraph(d, edges, declpat.GraphOptions{Bidirectional: true}) // in_edges needs the mirror
	lm := declpat.NewLockMap(d, 1)
	eng := declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions())

	p := declpat.NewPattern("tour")
	dist, w := p.VertexProp("dist"), p.EdgeProp("weight")
	far, gap, band := p.VertexProp("far"), p.VertexProp("gap"), p.VertexProp("band")
	ahead := p.VertexSetProp("ahead")
	atV, atU, atTrg, atSrc, atE := declpat.AtV(), declpat.AtU(), declpat.AtTrg(), declpat.AtSrc(), declpat.AtE()

	// relax (out_edges): the paper's Fig. 2 — dist[trg(e)] = dist[v] + w[e]
	// if that is shorter. Run to a fixed point, it is SSSP from 0.
	through := declpat.Add(dist.At(atV), w.At(atE))
	p.Action("relax", declpat.GenOutEdges()).
		If(declpat.Lt(through, dist.At(atTrg))).Set(dist.At(atTrg), through)

	// far (in_edges): the largest distance of a predecessor other than v.
	p.Action("far", declpat.GenInEdges()).
		If(declpat.Ne(declpat.Vtx(atSrc), declpat.Vtx(atV))).
		Set(far.At(atV), declpat.Max(far.At(atV), dist.At(atSrc)))

	// ahead (adj): u remembers each predecessor v that is closer to 0.
	p.Action("ahead", declpat.GenAdj()).
		If(declpat.Lt(dist.At(atV), dist.At(atU))).Insert(ahead.At(atU), declpat.Vtx(atV))

	// gap (set_of): the smallest step from a vertex of ahead[v] to v.
	p.Action("gap", declpat.GenSetOf(ahead)).
		Do().Set(gap.At(atV), declpat.Min(gap.At(atV), declpat.Sub(dist.At(atV), dist.At(atU))))

	// band (no generator): an if / else-if / else chain over v's own values.
	dv := dist.At(atV)
	bandA := p.Action("band", declpat.GenNone())
	bandA.If(declpat.And(declpat.Ge(dv, declpat.C(3)), declpat.Le(dv, declpat.C(7)))).
		Set(band.At(atV), declpat.Mul(gap.At(atV), declpat.C(10)))
	bandA.Elif(declpat.Or(declpat.Eq(dv, declpat.C(0)), declpat.Not(declpat.Gt(far.At(atV), declpat.C(-1))))).
		Set(band.At(atV), declpat.C(-1))
	bandA.Else().Set(band.At(atV), declpat.C(99))

	maps := map[string]*declpat.VertexWordMap{
		"dist": declpat.NewVertexWordMap(d, declpat.Inf), "far": declpat.NewVertexWordMap(d, -1),
		"gap": declpat.NewVertexWordMap(d, 100), "band": declpat.NewVertexWordMap(d, 0),
	}
	aheadMap := declpat.NewVertexSetMap(d, lm)
	bound, err := eng.Bind(p, declpat.Bindings{"dist": maps["dist"], "weight": declpat.WeightMap(g),
		"far": maps["far"], "gap": maps["gap"], "band": maps["band"], "ahead": aheadMap})
	if err != nil {
		panic(err)
	}
	relax := declpat.NewFixedPoint(bound.Action("relax"))
	if err := u.Run(func(r *declpat.Rank) {
		var seeds []declpat.Vertex
		if g.Owner(0) == r.ID() {
			maps["dist"].Set(r.ID(), 0, 0)
			seeds = []declpat.Vertex{0}
		}
		r.Barrier()
		relax.Run(r, seeds)
		for _, name := range []string{"far", "ahead", "gap", "band"} {
			declpat.Once(r, bound.Action(name), declpat.LocalVertices(g, r))
		}
	}); err != nil {
		panic(err)
	}

	dists, fars, gaps, bands := maps["dist"].Gather(), maps["far"].Gather(), maps["gap"].Gather(), maps["band"].Gather()
	fmt.Println("v dist far gap band ahead")
	for x := range n {
		vx := declpat.Vertex(x)
		fmt.Printf("%d %4d %3d %3d %4d %v\n", x, dists[x], fars[x], gaps[x], bands[x], aheadMap.Members(g.Owner(vx), vx))
	}
	// Output:
	// v dist far gap band ahead
	// 0    0  -1 100   -1 []
	// 1    3   1   2   20 [0 2]
	// 2    1   0   1   99 [0]
	// 3    4   8   1   10 [1 2]
	// 4    7   4   3   30 [3]
	// 5    8   7   1   99 [4]
}
