package algorithms

import (
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
// (E6, E14) and the E9 row beside PaperPlan.

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
}

func newHand(u *am.Universe, g *distgraph.Graph, name string, step func(rank int, e distgraph.EdgeRef) int64) *hand {
	dist := g.Dist()
	h := &hand{g: g, val: pmap.NewVertexWord(dist, pattern.Inf), step: step,
		queued: make([][]atomic.Uint32, dist.Ranks())}
	for rank := range h.queued {
		h.queued[rank] = make([]atomic.Uint32, dist.LocalCount(rank))
	}
	h.offer = am.Register(u, name, func(r *am.Rank, m offerMsg) {
		if !h.val.Min(r.ID(), m.T, m.D) {
			return
		}
		if h.naive {
			h.offerOut(r, m.T, m.D)
		} else if h.queued[r.ID()][dist.Local(m.T)].CompareAndSwap(0, 1) {
			h.expand.Send(r, expandMsg{T: m.T})
		}
	}).WithAddresser(func(m offerMsg) int { return g.Owner(m.T) })
	h.expand = am.Register(u, name+"-expand", func(r *am.Rank, m expandMsg) {
		// Clear before reading: an improvement that lands after the read
		// must queue an expansion of its own.
		h.queued[r.ID()][dist.Local(m.T)].Store(0)
		h.offerOut(r, m.T, h.val.Get(r.ID(), m.T))
	}).WithAddresser(func(m expandMsg) int { return g.Owner(m.T) })
	return h
}

// offerOut offers d plus one step along each of t's out-edges.
func (h *hand) offerOut(r *am.Rank, t distgraph.Vertex, d int64) {
	h.g.ForOutEdges(r.ID(), t, func(e distgraph.EdgeRef) {
		h.offer.Send(r, offerMsg{T: e.Trg(), D: d + h.step(r.ID(), e)})
	})
}

// run solves from src. Collective.
func (h *hand) run(r *am.Rank, src distgraph.Vertex) {
	h.val.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
		h.val.Set(r.ID(), v, pattern.Inf)
	})
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

// WithReductionCache installs AM++'s caching layer on the relax message:
// while a relaxation for a target is buffered, further relaxations for the
// same target combine into the minimum (experiment E6).
func (h *HandSSSP) WithReductionCache() *HandSSSP {
	h.h.offer.WithReduction(
		func(m offerMsg) uint64 { return uint64(m.T) },
		func(old, in offerMsg) (offerMsg, bool) {
			if in.D < old.D {
				return in, true
			}
			return old, false
		},
	)
	return h
}

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
