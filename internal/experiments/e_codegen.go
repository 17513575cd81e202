package experiments

import (
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/ssspgen"
)

// E14Codegen completes the abstraction-cost story of E9 with the paper's §VI
// future work realized: the same SSSP run three ways — interpretive pattern
// engine, translator-generated code, and hand-written messaging. Generated
// code should close (most of) the gap to hand-written while being derived
// mechanically from the declarative pattern.
func E14Codegen(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E14: pattern translator (generated code) vs engine vs hand-written",
		"impl", "messages", "handlers", "time", "wrong")
	machine := func() *am.Universe { return am.New(4, am.WithThreads(2)) }

	// Interpretive engine.
	{
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() { e.u.Run(func(r *am.Rank) { s.Run(r, 0) }) })
		t.Add(row([]any{"engine (interpretive)"}, statCells(e.u, "messages", "handlers"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	// Translator-generated.
	{
		u := machine()
		benchTrack(u)
		d := distgraph.NewBlockDist(n, u.Ranks())
		g := distgraph.Build(d, edges, defaultGOpts())
		dist := pmap.NewVertexWord(d, pattern.Inf)
		relax := ssspgen.NewRelax(u, g, dist, pmap.WeightMap(g))
		relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
		dur := harness.Time(func() {
			u.Run(func(r *am.Rank) {
				if g.Owner(0) == r.ID() {
					dist.Set(r.ID(), 0, 0)
				}
				r.Barrier()
				r.Epoch(func(ep *am.Epoch) {
					if g.Owner(0) == r.ID() {
						relax.Invoke(r, 0)
					}
				})
			})
		})
		t.Add(row([]any{"generated (translator)"}, statCells(u, "messages", "handlers"), dur,
			checkSSSP(dist.Gather(), n, edges, 0))...)
	}
	// Hand-written.
	{
		u := machine()
		benchTrack(u)
		g := buildGraph(u, n, edges, defaultGOpts())
		h := algorithms.NewHandSSSP(u, g).Naive() // the paper's shape, like PaperPlan beside it
		dur := harness.Time(func() { u.Run(func(r *am.Rank) { h.Run(r, 0) }) })
		t.Add(row([]any{"hand-written"}, statCells(u, "messages", "handlers"), dur,
			checkSSSP(h.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}
