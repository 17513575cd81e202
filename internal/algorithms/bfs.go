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

// BFSPattern builds a breadth-first level-label pattern: the relax shape
// with an implicit unit weight, demonstrating pattern reuse across
// algorithms (the paper's point that algorithms "share their core
// operations").
//
//	bfs(vertex v) {
//	  generator: e in out_edges;
//	  if (lvl[v] + 1 < lvl[trg(e)]) lvl[trg(e)] = lvl[v] + 1;
//	}
func BFSPattern() *pattern.Pattern {
	p := pattern.New("BFS")
	lvl := p.VertexProp("lvl")
	bfs := p.Action("bfs", pattern.OutEdges())
	d := pattern.Add(lvl.At(pattern.V()), pattern.C(1))
	bfs.If(pattern.Lt(d, lvl.At(pattern.Trg()))).Set(lvl.At(pattern.Trg()), d)
	return p
}

// BFS computes hop counts from a source using the fixed_point strategy.
type BFS struct {
	G     *distgraph.Graph
	Level *pmap.VertexWord
	Visit *pattern.BoundAction

	fp *strategy.FixedPoint
}

// NewBFS binds the BFS pattern over eng's graph. Call before Universe.Run.
func NewBFS(eng *pattern.Engine) *BFS {
	g := eng.Graph()
	b := &BFS{G: g, Level: pmap.NewVertexWord(g.Dist(), pattern.Inf)}
	bound, err := eng.Bind(BFSPattern(), pattern.Bindings{"lvl": b.Level})
	if err != nil {
		panic(fmt.Sprintf("algorithms: BFS bind: %v", err))
	}
	b.Visit = bound.Action("bfs")
	b.fp = strategy.NewFixedPoint(b.Visit)
	eng.Universe().RegisterCheckpointer(b.Level)
	return b
}

// Run computes levels from src. Collective.
func (b *BFS) Run(r *am.Rank, src distgraph.Vertex) {
	ph := r.Phase(obs.PhaseCollect)
	b.ResetLocal(r)
	seeds := b.SeedLocal(r, nil, src)
	ph.End()
	r.Barrier()
	b.fp.Run(r, seeds)
}

// ResetLocal resets this rank's slice of the level map to unvisited (∞).
// Rank-local; callers sequence their own barrier before seeding messages can
// arrive. The query plane uses it to recycle its bound BFS slot between
// queries without re-binding the pattern.
func (b *BFS) ResetLocal(r *am.Rank) {
	b.Level.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
		b.Level.Set(r.ID(), v, pattern.Inf)
	})
}

// SeedLocal marks src as a level-0 root if this rank owns it, appending it to
// seeds (unchanged otherwise). Splitting seeding from Run lets the query
// plane invoke the returned seeds inside an epoch of its own, tagged with the
// query's id; the fixed point reached is the one Run reaches.
func (b *BFS) SeedLocal(r *am.Rank, seeds []distgraph.Vertex, src distgraph.Vertex) []distgraph.Vertex {
	if b.G.Owner(src) == r.ID() {
		b.Level.Set(r.ID(), src, 0)
		seeds = append(seeds, src)
	}
	return seeds
}

// InvokeSeeds applies the bound visit action to each seed; the caller must be
// inside a collective epoch (the query plane's step).
func (b *BFS) InvokeSeeds(r *am.Rank, seeds []distgraph.Vertex) {
	for _, v := range seeds {
		b.Visit.Invoke(r, v)
	}
}
