package algorithms

import (
	"fmt"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// DegreePattern counts in-degrees by scattering over out-edges: an
// unconditional modification with a remote atomic add (the §IV-B
// single-value atomic case for accumulation).
//
//	count(vertex v) {
//	  generator: e in out_edges;
//	  indeg[trg(e)] += 1;
//	}
func DegreePattern() *pattern.Pattern {
	p := pattern.New("Degree")
	indeg := p.VertexProp("indeg")
	count := p.Action("count", pattern.OutEdges())
	count.Do().AddTo(indeg.At(pattern.Trg()), pattern.C(1))
	return p
}

// DegreeCount computes every vertex's in-degree.
type DegreeCount struct {
	G     *distgraph.Graph
	InDeg *pmap.VertexWord
	Count *pattern.BoundAction
}

// NewDegreeCount binds the degree pattern over eng's graph. Call before
// Universe.Run.
func NewDegreeCount(eng *pattern.Engine) *DegreeCount {
	g := eng.Graph()
	d := &DegreeCount{G: g, InDeg: pmap.NewVertexWord(g.Dist(), 0)}
	bound, err := eng.Bind(DegreePattern(), pattern.Bindings{"indeg": d.InDeg})
	if err != nil {
		panic(fmt.Sprintf("algorithms: Degree bind: %v", err))
	}
	d.Count = bound.Action("count")
	return d
}

// Run counts in-degrees. Collective.
func (d *DegreeCount) Run(r *am.Rank) {
	ph := r.Phase(obs.PhaseCollect)
	d.InDeg.Fill(r.ID(), 0)
	ph.End()
	r.Barrier()
	r.Epoch(func(ep *am.Epoch) {
		ph := r.Phase(obs.PhaseCollect)
		for _, v := range LocalVertices(d.G, r) {
			d.Count.Invoke(r, v)
		}
		ph.End()
	})
}
