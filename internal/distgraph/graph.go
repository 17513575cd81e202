package distgraph

import "fmt"

// Edge is one input edge for the builder, with its weight payload (the
// paper's canonical edge property).
type Edge struct {
	Src, Dst Vertex
	W        int64
}

// EdgeRef identifies one stored directed edge copy. S and T are the edge's
// source and target; Slot indexes the storage arrays on the edge's locality
// rank. In marks an in-edge-list copy (locality = owner of T) as opposed to
// an out-edge-list copy (locality = owner of S). Per the paper's Def. 1 the
// locality of a generated edge is the vertex it was generated at, and the
// storage model guarantees edge data is present there.
type EdgeRef struct {
	S, T Vertex
	Slot uint32
	In   bool
}

// Src returns the edge's source vertex (the paper's src(e)).
func (e EdgeRef) Src() Vertex { return e.S }

// Trg returns the edge's target vertex (the paper's trg(e)).
func (e EdgeRef) Trg() Vertex { return e.T }

// GenVertex returns the vertex the edge was generated at, which is its
// locality.
func (e EdgeRef) GenVertex() Vertex {
	if e.In {
		return e.T
	}
	return e.S
}

// Options configures graph construction.
type Options struct {
	// Symmetrize stores a reverse copy of every input edge, giving
	// undirected-graph adjacency through the out-edge lists (used by CC).
	Symmetrize bool
	// Bidirectional additionally builds in-edge lists with duplicated
	// edge payloads (the paper's bidirectional storage model, §III-A).
	Bidirectional bool
}

// Graph is a distributed graph: topology plus the canonical weight payload,
// partitioned over ranks by a Distribution.
type Graph struct {
	dist     Distribution
	locals   []*LocalGraph
	numEdges int64 // stored out-edge copies
	opts     Options
}

// LocalGraph is one rank's CSR shard. Index arrays have length
// localVertices+1; slot s of local vertex li satisfies
// OutIndex[li] <= s < OutIndex[li+1].
type LocalGraph struct {
	Rank     int
	OutIndex []uint32
	OutDst   []Vertex
	OutW     []int64

	// In-edge lists (nil unless Options.Bidirectional). InCanonRank/Slot
	// give the canonical out-edge copy of each in-edge so generic edge
	// property maps can mirror their values (see pmap).
	InIndex     []uint32
	InSrc       []Vertex
	InW         []int64
	InCanonRank []int32
	InCanonSlot []uint32
}

// NumLocal returns the number of vertices stored on this rank.
func (lg *LocalGraph) NumLocal() int { return len(lg.OutIndex) - 1 }

// NumOutEdges returns the number of out-edge slots on this rank.
func (lg *LocalGraph) NumOutEdges() int { return len(lg.OutDst) }

// NumInEdges returns the number of in-edge slots on this rank.
func (lg *LocalGraph) NumInEdges() int { return len(lg.InSrc) }

// Build constructs a distributed graph over dist from the input edge list.
// Construction is a collective, performed once before algorithms run; edges
// may be in any order and may contain self-loops and parallel edges.
func Build(dist Distribution, edges []Edge, opts Options) *Graph {
	n := dist.NumVertices()
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("distgraph: edge (%d,%d) out of range n=%d", e.Src, e.Dst, n))
		}
	}
	g := &Graph{dist: dist, opts: opts}
	R := dist.Ranks()
	g.locals = make([]*LocalGraph, R)
	for r := 0; r < R; r++ {
		g.locals[r] = &LocalGraph{Rank: r, OutIndex: make([]uint32, dist.LocalCount(r)+1)}
	}

	// A directed copy (s,d,w) is stored at owner(s); with Symmetrize the
	// reverse copy (d,s,w) is stored too.
	forEachCopy := func(fn func(s, d Vertex, w int64)) {
		for _, e := range edges {
			fn(e.Src, e.Dst, e.W)
			if opts.Symmetrize {
				fn(e.Dst, e.Src, e.W)
			}
		}
	}

	// Pass 1: out-degrees.
	forEachCopy(func(s, d Vertex, w int64) {
		lg := g.locals[dist.Owner(s)]
		lg.OutIndex[dist.Local(s)+1]++
	})
	for r := 0; r < R; r++ {
		lg := g.locals[r]
		for i := 1; i < len(lg.OutIndex); i++ {
			lg.OutIndex[i] += lg.OutIndex[i-1]
		}
		m := int(lg.OutIndex[len(lg.OutIndex)-1])
		lg.OutDst = make([]Vertex, m)
		lg.OutW = make([]int64, m)
		g.numEdges += int64(m)
	}

	// Pass 2: fill out arrays using per-rank cursors.
	cursors := make([][]uint32, R)
	for r := 0; r < R; r++ {
		lg := g.locals[r]
		cursors[r] = make([]uint32, lg.NumLocal())
		copy(cursors[r], lg.OutIndex[:lg.NumLocal()])
	}
	forEachCopy(func(s, d Vertex, w int64) {
		r, li := dist.Owner(s), dist.Local(s)
		slot := cursors[r][li]
		cursors[r][li]++
		lg := g.locals[r]
		lg.OutDst[slot] = d
		lg.OutW[slot] = w
	})

	if opts.Bidirectional {
		g.buildInEdges()
	}
	return g
}

// buildInEdges mirrors every stored out-edge copy onto the in-edge list of
// its target's owner, duplicating the weight payload and recording the
// canonical slot for property mirroring.
func (g *Graph) buildInEdges() {
	dist := g.dist
	R := dist.Ranks()
	for r := 0; r < R; r++ {
		g.locals[r].InIndex = make([]uint32, dist.LocalCount(r)+1)
	}
	g.forEachStored(func(rank int, slot uint32, s, d Vertex, w int64) {
		lg := g.locals[dist.Owner(d)]
		lg.InIndex[dist.Local(d)+1]++
	})
	for r := 0; r < R; r++ {
		lg := g.locals[r]
		for i := 1; i < len(lg.InIndex); i++ {
			lg.InIndex[i] += lg.InIndex[i-1]
		}
		m := int(lg.InIndex[len(lg.InIndex)-1])
		lg.InSrc = make([]Vertex, m)
		lg.InW = make([]int64, m)
		lg.InCanonRank = make([]int32, m)
		lg.InCanonSlot = make([]uint32, m)
	}
	cursors := make([][]uint32, R)
	for r := 0; r < R; r++ {
		lg := g.locals[r]
		cursors[r] = make([]uint32, lg.NumLocal())
		copy(cursors[r], lg.InIndex[:lg.NumLocal()])
	}
	g.forEachStored(func(rank int, slot uint32, s, d Vertex, w int64) {
		r := dist.Owner(d)
		li := dist.Local(d)
		islot := cursors[r][li]
		cursors[r][li]++
		lg := g.locals[r]
		lg.InSrc[islot] = s
		lg.InW[islot] = w
		lg.InCanonRank[islot] = int32(rank)
		lg.InCanonSlot[islot] = slot
	})
}

// forEachStored visits every stored out-edge copy as (rank, slot, src, dst, w).
func (g *Graph) forEachStored(fn func(rank int, slot uint32, s, d Vertex, w int64)) {
	for r, lg := range g.locals {
		for li := 0; li < lg.NumLocal(); li++ {
			s := g.dist.Global(r, li)
			for slot := lg.OutIndex[li]; slot < lg.OutIndex[li+1]; slot++ {
				fn(r, slot, s, lg.OutDst[slot], lg.OutW[slot])
			}
		}
	}
}

// Dist returns the graph's distribution.
func (g *Graph) Dist() Distribution { return g.dist }

// Options returns the construction options.
func (g *Graph) Options() Options { return g.opts }

// NumVertices returns the global vertex count.
func (g *Graph) NumVertices() int { return g.dist.NumVertices() }

// NumStoredEdges returns the number of stored out-edge copies (2× input
// edges when symmetrized).
func (g *Graph) NumStoredEdges() int64 { return g.numEdges }

// Local returns rank's shard.
func (g *Graph) Local(rank int) *LocalGraph { return g.locals[rank] }

// Owner returns the rank owning v.
func (g *Graph) Owner(v Vertex) int { return g.dist.Owner(v) }

// ForOutEdges calls fn for every out-edge of v. Must be called on v's owner
// rank (rank argument is the caller's rank, checked).
func (g *Graph) ForOutEdges(rank int, v Vertex, fn func(e EdgeRef)) {
	g.checkOwner(rank, v, "ForOutEdges")
	lg := g.locals[rank]
	li := g.dist.Local(v)
	for slot := lg.OutIndex[li]; slot < lg.OutIndex[li+1]; slot++ {
		fn(EdgeRef{S: v, T: lg.OutDst[slot], Slot: slot})
	}
}

// ForInEdges calls fn for every in-edge of v (requires Bidirectional). Must
// be called on v's owner rank.
func (g *Graph) ForInEdges(rank int, v Vertex, fn func(e EdgeRef)) {
	if !g.opts.Bidirectional {
		panic("distgraph: ForInEdges on a graph built without Bidirectional")
	}
	g.checkOwner(rank, v, "ForInEdges")
	lg := g.locals[rank]
	li := g.dist.Local(v)
	for slot := lg.InIndex[li]; slot < lg.InIndex[li+1]; slot++ {
		fn(EdgeRef{S: lg.InSrc[slot], T: v, Slot: slot, In: true})
	}
}

// ForAdj calls fn for every out-neighbor of v (the paper's adj generator;
// full adjacency on symmetrized graphs). Must be called on v's owner rank.
func (g *Graph) ForAdj(rank int, v Vertex, fn func(u Vertex)) {
	g.checkOwner(rank, v, "ForAdj")
	lg := g.locals[rank]
	li := g.dist.Local(v)
	for slot := lg.OutIndex[li]; slot < lg.OutIndex[li+1]; slot++ {
		fn(lg.OutDst[slot])
	}
}

// OutDegree returns v's out-degree; must be called on v's owner rank.
func (g *Graph) OutDegree(rank int, v Vertex) int {
	g.checkOwner(rank, v, "OutDegree")
	lg := g.locals[rank]
	li := g.dist.Local(v)
	return int(lg.OutIndex[li+1] - lg.OutIndex[li])
}

// Weight returns the payload of e; must be called on e's locality rank.
func (g *Graph) Weight(rank int, e EdgeRef) int64 {
	lg := g.locals[rank]
	if e.In {
		return lg.InW[e.Slot]
	}
	return lg.OutW[e.Slot]
}

func (g *Graph) checkOwner(rank int, v Vertex, op string) {
	if g.dist.Owner(v) != rank {
		panic(fmt.Sprintf("distgraph: %s(%d) on rank %d but owner is %d — remote access must go through messages",
			op, v, rank, g.dist.Owner(v)))
	}
}
