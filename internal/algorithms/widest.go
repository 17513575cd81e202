package algorithms

import (
	"fmt"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/strategy"
)

// WidestPattern builds the widest-path (max-min bottleneck capacity)
// pattern — the dual of SSSP's relax, compiling to an atomic-max merged
// evaluation:
//
//	widen(vertex v) {
//	  generator: e in out_edges;
//	  alias: c = min(cap[v], weight[e]);
//	  if (c > cap[trg(e)]) cap[trg(e)] = c;
//	}
func WidestPattern() *pattern.Pattern {
	p := pattern.New("Widest")
	capP := p.VertexProp("cap")
	weight := p.EdgeProp("weight")
	widen := p.Action("widen", pattern.OutEdges())
	c := pattern.MinE(capP.At(pattern.V()), weight.At(pattern.E()))
	widen.If(pattern.Gt(c, capP.At(pattern.Trg()))).Set(capP.At(pattern.Trg()), c)
	return p
}

// Widest computes, for every vertex, the maximum over source paths of the
// minimum edge weight along the path.
type Widest struct {
	G     *distgraph.Graph
	Cap   *pmap.VertexWord
	Widen *pattern.BoundAction

	fp *strategy.FixedPoint
}

// NewWidest binds the widest-path pattern over eng's graph. Call before
// Universe.Run.
func NewWidest(eng *pattern.Engine) *Widest {
	g := eng.Graph()
	w := &Widest{G: g, Cap: pmap.NewVertexWord(g.Dist(), 0)}
	bound, err := eng.Bind(WidestPattern(), pattern.Bindings{
		"cap":    w.Cap,
		"weight": pmap.WeightMap(g),
	})
	if err != nil {
		panic(fmt.Sprintf("algorithms: Widest bind: %v", err))
	}
	w.Widen = bound.Action("widen")
	w.fp = strategy.NewFixedPoint(w.Widen)
	return w
}

// Run computes capacities from src (whose capacity is ∞). Collective.
func (w *Widest) Run(r *am.Rank, src distgraph.Vertex) {
	ph := r.Phase(obs.PhaseCollect)
	w.Cap.Fill(r.ID(), 0)
	var seeds []distgraph.Vertex
	if w.G.Owner(src) == r.ID() {
		w.Cap.Set(r.ID(), src, pattern.Inf)
		seeds = []distgraph.Vertex{src}
	}
	ph.End()
	r.Barrier()
	w.fp.Run(r, seeds)
}
