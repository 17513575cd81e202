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

// BFSTreePattern builds a Graph500-style parent-tree BFS: every vertex is
// claimed once by the first arriving search edge.
//
//	visit(vertex v) {
//	  generator: e in out_edges;
//	  if (parent[trg(e)] == NULL) parent[trg(e)] = v;
//	}
func BFSTreePattern() *pattern.Pattern {
	p := pattern.New("BFSTree")
	parent := p.VertexProp("parent")
	visit := p.Action("visit", pattern.OutEdges())
	visit.If(pattern.Eq(parent.At(pattern.Trg()), pattern.C(pattern.NilWord))).
		Set(parent.At(pattern.Trg()), pattern.Vtx(pattern.V()))
	return p
}

// BFSTree computes a BFS parent tree (the Graph500 kernel-2 output shape:
// any valid search tree, not necessarily level-minimal, since claims race).
type BFSTree struct {
	G      *distgraph.Graph
	Parent *pmap.VertexWord
	Visit  *pattern.BoundAction

	fp *strategy.FixedPoint
}

// NewBFSTree binds the parent-tree pattern over eng's graph. Call before
// Universe.Run.
func NewBFSTree(eng *pattern.Engine) *BFSTree {
	g := eng.Graph()
	b := &BFSTree{G: g, Parent: pmap.NewVertexWord(g.Dist(), pattern.NilWord)}
	bound, err := eng.Bind(BFSTreePattern(), pattern.Bindings{"parent": b.Parent})
	if err != nil {
		panic(fmt.Sprintf("algorithms: BFSTree bind: %v", err))
	}
	b.Visit = bound.Action("visit")
	b.fp = strategy.NewFixedPoint(b.Visit)
	return b
}

// Run builds a search tree from src (whose parent is itself). Collective.
func (b *BFSTree) Run(r *am.Rank, src distgraph.Vertex) {
	ph := r.Phase(obs.PhaseCollect)
	b.Parent.Fill(r.ID(), pattern.NilWord)
	var seeds []distgraph.Vertex
	if b.G.Owner(src) == r.ID() {
		b.Parent.Set(r.ID(), src, int64(src))
		seeds = []distgraph.Vertex{src}
	}
	ph.End()
	r.Barrier()
	b.fp.Run(r, seeds)
}
