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

// SSSPPattern builds the paper's Fig. 2 pattern:
//
//	pattern SSSP {
//	  vertex-property(dist); edge-property(weight);
//	  relax(vertex v) {
//	    generator: e in out_edges;
//	    alias: d = dist[v] + weight[e];
//	    if (d < dist[trg(e)]) dist[trg(e)] = d;
//	  }
//	}
func SSSPPattern() *pattern.Pattern {
	p := pattern.New("SSSP")
	dist := p.VertexProp("dist")
	weight := p.EdgeProp("weight")
	relax := p.Action("relax", pattern.OutEdges())
	d := pattern.Add(dist.At(pattern.V()), weight.At(pattern.E()))
	relax.If(pattern.Lt(d, dist.At(pattern.Trg()))).Set(dist.At(pattern.Trg()), d)
	return p
}

// SSSPLightHeavyPattern builds the light/heavy variant of the relax pattern
// (§II-A's further Δ-stepping optimization): two actions over the same
// property maps, each guarding relaxation with an entry-local weight test
// that the planner's early-exit optimization evaluates before any message is
// sent.
func SSSPLightHeavyPattern(delta int64) *pattern.Pattern {
	p := pattern.New("SSSP-light-heavy")
	dist := p.VertexProp("dist")
	weight := p.EdgeProp("weight")
	build := func(name string, guard pattern.Expr) {
		a := p.Action(name, pattern.OutEdges())
		d := pattern.Add(dist.At(pattern.V()), weight.At(pattern.E()))
		a.If(pattern.And(guard, pattern.Lt(d, dist.At(pattern.Trg())))).
			Set(dist.At(pattern.Trg()), d)
	}
	build("relax_light", pattern.Lt(weight.At(pattern.E()), pattern.C(delta)))
	build("relax_heavy", pattern.Ge(weight.At(pattern.E()), pattern.C(delta)))
	return p
}

// SSSP is a configured single-source shortest paths solver over patterns.
type SSSP struct {
	G    *distgraph.Graph
	Dist *pmap.VertexWord
	// Relax is the bound relax action (for stats and plan inspection).
	Relax *pattern.BoundAction

	eng   *pattern.Engine
	fp    *strategy.FixedPoint
	delta *strategy.Delta // nil: fixed point
}

// NewSSSP binds the SSSP pattern over g with the given plan options. Must be
// called before Universe.Run. Configure the strategy with one of
// UseFixedPoint / UseDelta / UseDeltaDistributed / UseDeltaLightHeavy
// (default: fixed point).
func NewSSSP(eng *pattern.Engine, opts ...func(*SSSP)) *SSSP {
	g := eng.Graph()
	s := &SSSP{G: g, Dist: pmap.NewVertexWord(g.Dist(), pattern.Inf), eng: eng}
	bound, err := eng.Bind(SSSPPattern(), pattern.Bindings{
		"dist":   s.Dist,
		"weight": pmap.WeightMap(g),
	})
	if err != nil {
		panic(fmt.Sprintf("algorithms: SSSP bind: %v", err))
	}
	s.Relax = bound.Action("relax")
	s.fp = strategy.NewFixedPoint(s.Relax)
	eng.Universe().RegisterCheckpointer(s.Dist)
	for _, o := range opts {
		o(s)
	}
	return s
}

// UseFixedPoint selects the fixed_point strategy (the default).
func (s *SSSP) UseFixedPoint() *SSSP {
	s.fp, s.delta = strategy.NewFixedPoint(s.Relax), nil
	return s
}

// UseDelta selects the Δ-stepping strategy with bucket width delta.
func (s *SSSP) UseDelta(u *am.Universe, delta int64) *SSSP {
	s.delta = strategy.NewDelta(u, s.Relax, nil, s.Dist, delta, 1)
	return s
}

// UseDeltaDistributed selects distributed Δ-stepping with the given bucket
// width and body threads per rank.
func (s *SSSP) UseDeltaDistributed(u *am.Universe, delta int64, threads int) *SSSP {
	s.delta = strategy.NewDelta(u, s.Relax, nil, s.Dist, delta, threads)
	return s
}

// UseDeltaLightHeavy selects Δ-stepping with the light/heavy edge split:
// binds the two-action pattern over the same distance map and installs the
// bucket hooks.
func (s *SSSP) UseDeltaLightHeavy(u *am.Universe, delta int64) *SSSP {
	bound, err := s.eng.Bind(SSSPLightHeavyPattern(delta), pattern.Bindings{
		"dist":   s.Dist,
		"weight": pmap.WeightMap(s.G),
	})
	if err != nil {
		panic(fmt.Sprintf("algorithms: SSSP light/heavy bind: %v", err))
	}
	s.delta = strategy.NewDelta(u, bound.Action("relax_light"), bound.Action("relax_heavy"), s.Dist, delta, 1)
	return s
}

// BucketEpochs reports per-bucket epochs of the last Δ-stepping run (0 for
// fixed point).
func (s *SSSP) BucketEpochs() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.BucketEpochs
}

// RunBellmanFordRounds solves SSSP with synchronous relaxation rounds built
// from the `once` strategy (Fig. 1's iterative fixed-point algorithm run
// round-by-round): every round applies relax at every local vertex and the
// loop stops when a round changes nothing anywhere. Returns the number of
// rounds. Collective. The configured strategy is ignored.
func (s *SSSP) RunBellmanFordRounds(r *am.Rank, src distgraph.Vertex) int {
	ph := r.Phase(obs.PhaseCollect)
	s.Dist.Fill(r.ID(), pattern.Inf)
	if s.G.Owner(src) == r.ID() {
		s.Dist.Set(r.ID(), src, 0)
	}
	ph.End()
	r.Barrier()
	locals := LocalVertices(s.G, r)
	rounds := 0
	for strategy.Once(r, s.Relax, locals) {
		rounds++
		if rounds > s.G.NumVertices()+1 {
			panic("algorithms: Bellman-Ford rounds did not converge")
		}
	}
	return rounds + 1
}

// ResetLocal resets this rank's slice of the distance map to unreached (∞).
// Rank-local; callers sequence their own barrier before relaxations can
// arrive. The query plane uses it to recycle its bound SSSP slot between
// queries without re-binding the pattern.
func (s *SSSP) ResetLocal(r *am.Rank) {
	s.Dist.Fill(r.ID(), pattern.Inf)
}

// SeedLocal zeroes src's distance if this rank owns it, appending it to seeds
// (unchanged otherwise). Like BFS.SeedLocal, this is the query plane's seam:
// it seeds a query's source and relaxes it in an epoch tagged with the
// query's id.
func (s *SSSP) SeedLocal(r *am.Rank, seeds []distgraph.Vertex, src distgraph.Vertex) []distgraph.Vertex {
	if s.G.Owner(src) == r.ID() {
		s.Dist.Set(r.ID(), src, 0)
		seeds = append(seeds, src)
	}
	return seeds
}

// InvokeSeeds applies the bound relax action to each seed; the caller must be
// inside a collective epoch (the query plane's step).
func (s *SSSP) InvokeSeeds(r *am.Rank, seeds []distgraph.Vertex) {
	for _, v := range seeds {
		s.Relax.Invoke(r, v)
	}
}

// Run solves SSSP from src. Collective: call from every rank's body. The
// distance map is reset (∞ everywhere, 0 at the source) on entry.
func (s *SSSP) Run(r *am.Rank, src distgraph.Vertex) {
	ph := r.Phase(obs.PhaseCollect)
	s.ResetLocal(r)
	seeds := s.SeedLocal(r, nil, src)
	ph.End()
	r.Barrier()
	if s.delta != nil {
		s.delta.Run(r, seeds)
	} else {
		s.fp.Run(r, seeds)
	}
}
