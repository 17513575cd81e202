package algorithms

import (
	"fmt"
	"sync"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// BCScale is the fixed-point scale of betweenness dependency values.
const BCScale = int64(1) << 20

// BetweennessPattern builds the three actions of Brandes' algorithm over
// unweighted shortest paths — a staged algorithm where the imperative
// driver sequences level-synchronous epochs over declarative per-edge
// actions:
//
//	claim(vertex v) {                 // forward BFS level expansion
//	  generator: e in out_edges;
//	  if (depth[trg(e)] == INF) depth[trg(e)] = depth[v] + 1;
//	}
//	count(vertex v) {                 // shortest-path counting per level
//	  generator: e in out_edges;
//	  if (depth[trg(e)] == depth[v] + 1) sigma[trg(e)] += sigma[v];
//	}
//	accumulate(vertex v) {            // backward dependency accumulation
//	  generator: e in in_edges;
//	  if (depth[src(e)] == depth[v] - 1)
//	    delta[src(e)] += sigma[src(e)] * (SCALE + delta[v]) / sigma[v];
//	}
//
// accumulate modifies at the *source* of an in-edge: the plan gathers the
// entry-local values and evaluates at src(e), reading sigma and depth there
// under the merge synchronization — one message per tree edge.
func BetweennessPattern() *pattern.Pattern {
	p := pattern.New("Brandes")
	depth := p.VertexProp("depth")
	sigma := p.VertexProp("sigma")
	delta := p.VertexProp("delta")

	claim := p.Action("claim", pattern.OutEdges())
	claim.If(pattern.Eq(depth.At(pattern.Trg()), pattern.C(pattern.Inf))).
		Set(depth.At(pattern.Trg()), pattern.Add(depth.At(pattern.V()), pattern.C(1)))

	count := p.Action("count", pattern.OutEdges())
	count.If(pattern.Eq(depth.At(pattern.Trg()), pattern.Add(depth.At(pattern.V()), pattern.C(1)))).
		AddTo(sigma.At(pattern.Trg()), sigma.At(pattern.V()))

	acc := p.Action("accumulate", pattern.InEdges())
	acc.If(pattern.Eq(depth.At(pattern.Src()), pattern.Sub(depth.At(pattern.V()), pattern.C(1)))).
		AddTo(delta.At(pattern.Src()),
			pattern.Div(
				pattern.Mul(sigma.At(pattern.Src()), pattern.Add(pattern.C(BCScale), delta.At(pattern.V()))),
				sigma.At(pattern.V())))

	return p
}

// Betweenness computes unnormalized betweenness centrality from a set of
// sources (exact Brandes when sources = all vertices; approximate
// otherwise). The graph must be bidirectional. Values are fixed-point with
// scale BCScale; sigma path counts must stay below 2^40 for the scaled
// arithmetic to be exact (comfortably true at simulated scales).
type Betweenness struct {
	G *distgraph.Graph
	// BC[v] accumulates scaled dependency scores across sources.
	BC *pmap.VertexWord

	depth, sigma, delta *pmap.VertexWord
	Claim, Count, Acc   *pattern.BoundAction

	mu   sync.Mutex
	next map[int][]distgraph.Vertex // per-rank next frontier
}

// NewBetweenness binds the Brandes pattern over eng's bidirectional graph.
// Call before Universe.Run.
func NewBetweenness(eng *pattern.Engine) *Betweenness {
	g := eng.Graph()
	if !g.Options().Bidirectional {
		panic("algorithms: Betweenness requires a bidirectional graph")
	}
	b := &Betweenness{
		G:     g,
		BC:    pmap.NewVertexWord(g.Dist(), 0),
		depth: pmap.NewVertexWord(g.Dist(), pattern.Inf),
		sigma: pmap.NewVertexWord(g.Dist(), 0),
		delta: pmap.NewVertexWord(g.Dist(), 0),
		next:  map[int][]distgraph.Vertex{},
	}
	bound, err := eng.Bind(BetweennessPattern(), pattern.Bindings{
		"depth": b.depth, "sigma": b.sigma, "delta": b.delta,
	})
	if err != nil {
		panic(fmt.Sprintf("algorithms: Betweenness bind: %v", err))
	}
	b.Claim = bound.Action("claim")
	b.Count = bound.Action("count")
	b.Acc = bound.Action("accumulate")
	// Claim dependencies deliver the next BFS frontier to its owner rank.
	b.Claim.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		b.mu.Lock()
		b.next[r.ID()] = append(b.next[r.ID()], v)
		b.mu.Unlock()
	})
	return b
}

// Run accumulates dependency scores from every source in sources.
// Collective; every rank must pass the same source list.
func (b *Betweenness) Run(r *am.Rank, sources []distgraph.Vertex) {
	g := b.G
	rid := r.ID()
	locals := LocalVertices(g, r)
	b.BC.Fill(rid, 0)
	r.Barrier()

	for _, s := range sources {
		// Per-source reset.
		ph := r.Phase(obs.PhaseCollect)
		for _, v := range locals {
			b.depth.Set(rid, v, pattern.Inf)
			b.sigma.Set(rid, v, 0)
			b.delta.Set(rid, v, 0)
		}
		var frontier []distgraph.Vertex
		if g.Owner(s) == rid {
			b.depth.Set(rid, s, 0)
			b.sigma.Set(rid, s, 1)
			frontier = []distgraph.Vertex{s}
		}
		ph.End()
		r.Barrier()

		// Forward: level-synchronous claim + count epochs.
		levels := [][]distgraph.Vertex{}
		for {
			sz := r.AllReduceSum(int64(len(frontier)))
			if sz == 0 {
				break
			}
			levels = append(levels, frontier)
			b.mu.Lock()
			b.next[rid] = nil
			b.mu.Unlock()
			r.Epoch(func(ep *am.Epoch) {
				for _, v := range frontier {
					b.Claim.Invoke(r, v)
				}
			})
			r.Epoch(func(ep *am.Epoch) {
				for _, v := range frontier {
					b.Count.Invoke(r, v)
				}
			})
			b.mu.Lock()
			frontier = b.next[rid]
			b.mu.Unlock()
		}

		// Backward: dependency accumulation from the deepest level.
		maxLevel := r.AllReduceMax(int64(len(levels) - 1))
		for l := maxLevel; l >= 1; l-- {
			var lv []distgraph.Vertex
			if int(l) < len(levels) {
				lv = levels[l]
			}
			r.Epoch(func(ep *am.Epoch) {
				for _, v := range lv {
					b.Acc.Invoke(r, v)
				}
			})
		}

		// Fold this source's dependencies into BC.
		fold := r.Phase(obs.PhaseEmit)
		for _, v := range locals {
			if v != s && b.depth.Get(rid, v) != pattern.Inf {
				b.BC.Add(rid, v, b.delta.Get(rid, v))
			}
		}
		fold.End()
		r.Barrier()
	}
}
