package algorithms

import (
	"sync"
	"sync/atomic"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// The hand-written AM++ baselines of experiment E9: the messaging a
// programmer would write directly against the substrate, without the pattern
// engine. The pattern engine should produce the same message pattern with
// only interpretation overhead on top, so the baselines keep the discipline
// the engine keeps: an improved vertex is expanded once however many
// improvements reach it before the expansion starts (an in-queue word per
// vertex, the engine's coalesced re-invocation), and the expansion offers the
// owner's current value, not the one the improving message carried. Naive
// selects the form without it — every improving delivery expands at once with
// the value it brought — which is the paper's one relax per improving edge
// (E6) and the E9 row beside PaperPlan.

// offerMsg offers value D to vertex T: val[T] = min(val[T], D).
type offerMsg struct {
	T distgraph.Vertex
	D int64
}

// expandMsg asks T's owner to offer T's value along T's out-edges.
type expandMsg struct {
	T distgraph.Vertex
}

// hand is the one relaxation both baselines run: SSSP steps by the edge's
// weight, BFS by 1.
type hand struct {
	g      *distgraph.Graph
	val    *pmap.VertexWord
	step   func(rank int, e distgraph.EdgeRef) int64
	naive  bool
	offer  *am.MsgType[offerMsg]
	expand *am.MsgType[expandMsg]
	// queued[rank][li] is set while an expandMsg for that vertex is in flight
	// and not yet started.
	queued [][]atomic.Uint32
	// cache stages each handler call's offers (stages: one per concurrent
	// call) and counts the offers it combined away in suppressed.
	cache      bool
	stages     sync.Pool
	suppressed atomic.Int64
}

// stage holds one handler call's offers, one run per destination rank;
// at[v] indexes v's offer in its owner's run.
type stage struct {
	runs       [][]offerMsg
	at         map[distgraph.Vertex]int
	suppressed int64
}

func newHand(u *am.Universe, g *distgraph.Graph, name string, step func(rank int, e distgraph.EdgeRef) int64) *hand {
	dist := g.Dist()
	h := &hand{g: g, val: pmap.NewVertexWord(dist, pattern.Inf), step: step,
		queued: make([][]atomic.Uint32, dist.Ranks())}
	for rank := range h.queued {
		h.queued[rank] = make([]atomic.Uint32, dist.LocalCount(rank))
	}
	h.stages.New = func() any {
		return &stage{runs: make([][]offerMsg, dist.Ranks()), at: map[distgraph.Vertex]int{}}
	}
	h.offer = am.RegisterBatch(u, name, func(r *am.Rank, b []offerMsg) {
		s := h.begin()
		for _, m := range b {
			if !h.val.Min(r.ID(), m.T, m.D) {
				continue
			}
			if h.naive {
				h.offerOut(r, s, m.T, m.D)
			} else if h.queued[r.ID()][dist.Local(m.T)].CompareAndSwap(0, 1) {
				h.expand.Send(r, expandMsg{T: m.T})
			}
		}
		h.end(r, s)
	}).WithAddresser(func(m offerMsg) int { return g.Owner(m.T) })
	h.expand = am.RegisterBatch(u, name+"-expand", func(r *am.Rank, b []expandMsg) {
		s := h.begin()
		for _, m := range b {
			// Clear before reading: an improvement that lands after the
			// read must queue an expansion of its own.
			h.queued[r.ID()][dist.Local(m.T)].Store(0)
			h.offerOut(r, s, m.T, h.val.Get(r.ID(), m.T))
		}
		h.end(r, s)
	}).WithAddresser(func(m expandMsg) int { return g.Owner(m.T) })
	return h
}

// offerOut offers d plus one step along each of t's out-edges: sent at once
// without the cache, staged in s with it.
func (h *hand) offerOut(r *am.Rank, s *stage, t distgraph.Vertex, d int64) {
	h.g.ForOutEdges(r.ID(), t, func(e distgraph.EdgeRef) {
		m := offerMsg{T: e.Trg(), D: d + h.step(r.ID(), e)}
		if s == nil {
			h.offer.Send(r, m)
			return
		}
		dest := h.g.Owner(m.T)
		if j, ok := s.at[m.T]; ok {
			s.runs[dest][j].D = min(s.runs[dest][j].D, m.D)
			s.suppressed++
			return
		}
		s.at[m.T] = len(s.runs[dest])
		s.runs[dest] = append(s.runs[dest], m)
	})
}

// begin returns a handler call's stage, nil when the cache is off.
func (h *hand) begin() *stage {
	if !h.cache {
		return nil
	}
	return h.stages.Get().(*stage)
}

// end sends each destination's staged offers as one run and returns s.
func (h *hand) end(r *am.Rank, s *stage) {
	if s == nil {
		return
	}
	for dest, run := range s.runs {
		if len(run) > 0 {
			h.offer.SendAll(r, dest, run)
			s.runs[dest] = run[:0]
		}
	}
	clear(s.at)
	h.suppressed.Add(s.suppressed)
	s.suppressed = 0
	h.stages.Put(s)
}

// run solves from src. Collective.
func (h *hand) run(r *am.Rank, src distgraph.Vertex) {
	h.val.Fill(r.ID(), pattern.Inf)
	r.Barrier()
	r.Epoch(func(ep *am.Epoch) {
		if h.g.Owner(src) == r.ID() {
			h.offer.Send(r, offerMsg{T: src, D: 0})
		}
	})
}

// HandSSSP is the hand-written AM++ SSSP.
type HandSSSP struct {
	G    *distgraph.Graph
	Dist *pmap.VertexWord
	h    *hand
}

// NewHandSSSP registers the baseline's message types on u. Call before
// Universe.Run.
func NewHandSSSP(u *am.Universe, g *distgraph.Graph) *HandSSSP {
	h := newHand(u, g, "hand-relax", g.Weight)
	return &HandSSSP{G: g, Dist: h.val, h: h}
}

// Naive selects the undisciplined form: one expansion per improving delivery.
func (h *HandSSSP) Naive() *HandSSSP {
	h.h.naive = true
	return h
}

// WithReductionCache turns on the paper's §IV caching (experiment E6): the
// offers one handler call makes to the same target combine into the
// smallest before they are sent. Call before Universe.Run.
func (h *HandSSSP) WithReductionCache() *HandSSSP {
	h.h.cache = true
	return h
}

// Suppressed counts the offers the cache combined away, over every run.
func (h *HandSSSP) Suppressed() int64 { return h.h.suppressed.Load() }

// Run solves SSSP from src. Collective.
func (h *HandSSSP) Run(r *am.Rank, src distgraph.Vertex) { h.h.run(r, src) }

// HandBFS is the hand-written AM++ BFS baseline.
type HandBFS struct {
	G     *distgraph.Graph
	Level *pmap.VertexWord
	h     *hand
}

// NewHandBFS registers the baseline's message types on u. Call before
// Universe.Run.
func NewHandBFS(u *am.Universe, g *distgraph.Graph) *HandBFS {
	h := newHand(u, g, "hand-visit", func(int, distgraph.EdgeRef) int64 { return 1 })
	return &HandBFS{G: g, Level: h.val, h: h}
}

// Naive selects the undisciplined form: one expansion per improving delivery.
func (h *HandBFS) Naive() *HandBFS {
	h.h.naive = true
	return h
}

// Run computes levels from src. Collective.
func (h *HandBFS) Run(r *am.Rank, src distgraph.Vertex) { h.h.run(r, src) }
