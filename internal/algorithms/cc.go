package algorithms

import (
	"fmt"
	"sync/atomic"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/strategy"
)

// CCPattern builds the §II-B connected-components pattern. Three actions:
//
//   - cc_search fans out from a claimed vertex over adj(v): an unclaimed
//     neighbour is claimed into v's component (the dependency work hook
//     continues the search from it); a neighbour claimed by a different
//     search records the conflict symmetrically in the two roots' conflict
//     sets.
//   - cc_link propagates the better (smaller) rewrite label across recorded
//     conflicts (generator: the conf set — fan-out over vertices stored in a
//     property map, §III-C).
//   - cc_jump is the paper's pointer jumping: if the rewrite target of v's
//     rewrite target is better, shortcut to it — the two-hop gather
//     chg[chg[v]] (experiment E11).
//
// pnt[v] is the claiming root (NULL when unclaimed); chg[r] is root r's
// current rewrite label (initialized to r itself); conf[r] is the set of
// roots r collided with.
func CCPattern() *pattern.Pattern {
	p := pattern.New("CC")
	pnt := p.VertexProp("pnt")
	chg := p.VertexProp("chg")
	conf := p.VertexSetProp("conf")

	search := p.Action("cc_search", pattern.Adj())
	pv := pnt.At(pattern.V())
	pu := pnt.At(pattern.U())
	search.If(pattern.Eq(pu, pattern.C(pattern.NilWord))).
		Set(pu, pv)
	search.Elif(pattern.Ne(pu, pv)).
		Insert(conf.AtVal(pu), pv).
		Insert(conf.AtVal(pv), pu)

	link := p.Action("cc_link", pattern.SetOf(conf))
	cv := chg.At(pattern.V())
	cu := chg.At(pattern.U())
	link.If(pattern.Lt(cv, cu)).Set(cu, cv)

	jump := p.Action("cc_jump", pattern.None())
	cc := chg.AtVal(cv)
	jump.If(pattern.Lt(cc, cv)).Set(chg.At(pattern.V()), cc)

	return p
}

// CC solves connected components by the paper's parallel-search algorithm
// (Fig. 3): concurrent searches claim territories, colliding searches record
// conflicts, and the recorded conflict labels are resolved by link rounds
// and pointer jumping under the `once` strategy, followed by the final
// non-graph rewrite.
type CC struct {
	G *distgraph.Graph
	// Pnt[v] is the root that claimed v; Chg[r] the root's final rewrite
	// label; Comp[v] the resolved component label after Run.
	Pnt, Chg, Comp *pmap.VertexWord
	Conf           *pmap.VertexSet

	Search, Link, Jump *pattern.BoundAction

	// FlushEvery controls search pacing: epoch_flush is called after this
	// many search starts (1 = the paper's Fig. 3 loop; larger values
	// start more searches concurrently, increasing conflicts — E3).
	FlushEvery int

	// JumpRounds records how many once-rounds the resolution loop took
	// (identical on every rank; written by rank 0).
	JumpRounds int
	// searchesStarted counts claimed roots across all ranks.
	searchesStarted atomic.Int64
}

// SearchesStarted returns the number of search roots claimed across all
// ranks (valid after Run).
func (c *CC) SearchesStarted() int64 { return c.searchesStarted.Load() }

// NewCC binds the CC pattern over eng's graph. The graph must be symmetrized
// (undirected adjacency). Must be called before Universe.Run.
func NewCC(eng *pattern.Engine, lm *pmap.LockMap) *CC {
	g := eng.Graph()
	c := &CC{
		G:          g,
		Pnt:        pmap.NewVertexWord(g.Dist(), pattern.NilWord),
		Chg:        pmap.NewVertexWord(g.Dist(), 0),
		Comp:       pmap.NewVertexWord(g.Dist(), pattern.NilWord),
		Conf:       pmap.NewVertexSet(g.Dist(), lm),
		FlushEvery: 1,
	}
	bound, err := eng.Bind(CCPattern(), pattern.Bindings{
		"pnt": c.Pnt, "chg": c.Chg, "conf": c.Conf,
	})
	if err != nil {
		panic(fmt.Sprintf("algorithms: CC bind: %v", err))
	}
	c.Search = bound.Action("cc_search")
	c.Link = bound.Action("cc_link")
	c.Jump = bound.Action("cc_jump")
	// The paper's work hook: continue the search from newly claimed
	// vertices.
	c.Search.SetWorkRerun()
	// searchesStarted is a metric, not algorithm state; it is not
	// checkpointed.
	u := eng.Universe()
	u.RegisterCheckpointer(c.Pnt)
	u.RegisterCheckpointer(c.Chg)
	u.RegisterCheckpointer(c.Comp)
	u.RegisterCheckpointer(c.Conf)
	return c
}

// Run computes components. Collective. Afterwards Comp holds, for every
// vertex, the minimum root label of its component; two vertices are in the
// same component iff their Comp values are equal.
//
// Run is single-process only: the final rewrite follows rewrite pointers
// across shards with direct cross-rank reads. Multi-process hosts call
// RunResolve and perform the rewrite globally from the gathered Pnt/Chg
// vectors (the rewrite is "not a graph computation", §II-B, so it needs no
// messaging — just the full label table).
func (c *CC) Run(r *am.Rank) {
	c.RunResolve(r)
	g := c.G
	rid := r.ID()

	// rewrite_cc: "simply rewrite component roots for all vertices based
	// on the values in the chg property map ... not a graph computation"
	// (§II-B). Chg values are quiescent now; resolve each vertex's root
	// label, following rewrite pointers across shards directly.
	r.Barrier()
	rw := r.Phase(obs.PhaseEmit)
	for _, v := range LocalVertices(g, r) {
		root := c.Pnt.Get(rid, v)
		lbl := root
		for i := 0; i < 64; i++ {
			next := c.Chg.Get(g.Owner(distgraph.Vertex(lbl)), distgraph.Vertex(lbl))
			if next == lbl {
				break
			}
			lbl = next
		}
		c.Comp.Set(rid, v, lbl)
	}
	rw.End()
	r.Barrier()
}

// RunResolve runs the search phase and the link/jump resolution loop,
// leaving Pnt and Chg quiescent and consistent; Comp is not written.
// Collective.
func (c *CC) RunResolve(r *am.Rank) {
	g := c.G
	rid := r.ID()
	// Initialization (Fig. 3 lines 2-4): pnt NULL, chg[v] = v.
	ph := r.Phase(obs.PhaseCollect)
	c.Pnt.ForEachLocal(rid, func(v distgraph.Vertex, _ int64) {
		c.Pnt.Set(rid, v, pattern.NilWord)
		c.Chg.Set(rid, v, int64(v))
	})
	ph.End()
	r.Barrier()

	// Parallel search phase (Fig. 3 lines 6-13): start a search at every
	// still-unclaimed local vertex, flushing to let running searches
	// claim territory before the next start.
	if rid == 0 {
		c.searchesStarted.Store(0)
	}
	r.Barrier()
	started := int64(0)
	r.Epoch(func(ep *am.Epoch) {
		sinceFlush := 0
		for _, v := range LocalVertices(g, r) {
			// Atomically claim v as its own root; skip if a
			// running search got here first.
			if !c.Pnt.CAS(rid, v, pattern.NilWord, int64(v)) {
				continue
			}
			started++
			c.Search.Invoke(r, v)
			sinceFlush++
			if sinceFlush >= c.FlushEvery {
				ep.Flush()
				sinceFlush = 0
			}
		}
	})
	c.searchesStarted.Add(started)

	// Resolution loop (Fig. 3 lines 14-17): repeat once(cc_link) and
	// once(cc_jump) over the conflicting roots until neither changes
	// anything anywhere. The roots list is derived from Conf inside each
	// epoch (OnceOver) so a checkpoint-restarted replay computes it after
	// its state restore; Conf is quiescent here, so every evaluation yields
	// the same list.
	rootsOf := func() []distgraph.Vertex {
		var roots []distgraph.Vertex
		for _, v := range LocalVertices(g, r) {
			if c.Conf.Len(rid, v) > 0 {
				roots = append(roots, v)
			}
		}
		return roots
	}
	rounds := 0
	for {
		linked := strategy.OnceOver(r, c.Link, rootsOf)
		jumped := strategy.OnceOver(r, c.Jump, rootsOf)
		rounds++
		if !linked && !jumped {
			break
		}
		if rounds > 64 {
			panic("algorithms: CC resolution did not converge")
		}
	}
	if rid == 0 {
		c.JumpRounds = rounds
	}
}
