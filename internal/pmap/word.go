package pmap

import (
	"fmt"
	"sync/atomic"

	"declpat/internal/distgraph"
)

// VertexWord is a distributed vertex property map holding one int64 word per
// vertex. Every accessor acts on behalf of the owning rank: the caller names
// the owner and the access lands in the owner's shard. The caller is normally
// one of the owner's own threads; the pattern engine also applies single-word
// operations from a co-resident rank's thread (DESIGN.md, "Co-resident direct
// application"). Either way the accessors are pure atomic instructions
// (§IV-B), safe for any number of concurrent callers.
//
// Vertex-addressed accessors (Get, Min, ...) check that rank owns v and
// panic otherwise. The *At accessors take the owner's local index instead and
// check nothing: they are for a caller that has already resolved
// (owner, local index) from the map's distribution, once, for several
// accesses.
type VertexWord struct {
	dist   distgraph.Distribution
	shards [][]int64
}

// NewVertexWord allocates a vertex word map over dist with every value init.
func NewVertexWord(dist distgraph.Distribution, init int64) *VertexWord {
	m := &VertexWord{dist: dist, shards: make([][]int64, dist.Ranks())}
	for r := range m.shards {
		s := make([]int64, dist.LocalCount(r))
		if init != 0 {
			for i := range s {
				s[i] = init
			}
		}
		m.shards[r] = s
	}
	return m
}

// Dist returns the map's distribution.
func (m *VertexWord) Dist() distgraph.Distribution { return m.dist }

func (m *VertexWord) slot(rank int, v distgraph.Vertex) *int64 {
	if m.dist.Owner(v) != rank {
		panic(fmt.Sprintf("pmap: access to vertex %d on rank %d but owner is %d", v, rank, m.dist.Owner(v)))
	}
	return &m.shards[rank][m.dist.Local(v)]
}

// Get atomically loads v's value on its owner rank.
func (m *VertexWord) Get(rank int, v distgraph.Vertex) int64 {
	return atomic.LoadInt64(m.slot(rank, v))
}

// Set atomically stores x as v's value on its owner rank.
func (m *VertexWord) Set(rank int, v distgraph.Vertex, x int64) {
	atomic.StoreInt64(m.slot(rank, v), x)
}

// SetIfChanged stores x and reports whether the stored value changed.
func (m *VertexWord) SetIfChanged(rank int, v distgraph.Vertex, x int64) bool {
	p := m.slot(rank, v)
	old := atomic.SwapInt64(p, x)
	return old != x
}

// atomicMin lowers *p to x; reports whether it decreased.
func atomicMin(p *int64, x int64) bool {
	for {
		cur := atomic.LoadInt64(p)
		if x >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(p, cur, x) {
			return true
		}
	}
}

// atomicMax raises *p to x; reports whether it increased.
func atomicMax(p *int64, x int64) bool {
	for {
		cur := atomic.LoadInt64(p)
		if x <= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(p, cur, x) {
			return true
		}
	}
}

// Min atomically lowers v's value to x; reports whether it decreased.
func (m *VertexWord) Min(rank int, v distgraph.Vertex, x int64) bool {
	return atomicMin(m.slot(rank, v), x)
}

// Max atomically raises v's value to x; reports whether it increased.
func (m *VertexWord) Max(rank int, v distgraph.Vertex, x int64) bool {
	return atomicMax(m.slot(rank, v), x)
}

// Add atomically adds x to v's value and returns the new value.
func (m *VertexWord) Add(rank int, v distgraph.Vertex, x int64) int64 {
	return atomic.AddInt64(m.slot(rank, v), x)
}

// CAS atomically replaces old with new at v; reports success.
func (m *VertexWord) CAS(rank int, v distgraph.Vertex, old, new int64) bool {
	return atomic.CompareAndSwapInt64(m.slot(rank, v), old, new)
}

// GetAt atomically loads the value at local index li of owner's shard.
func (m *VertexWord) GetAt(owner, li int) int64 { return atomic.LoadInt64(&m.shards[owner][li]) }

// SetAt atomically stores x at local index li of owner's shard.
func (m *VertexWord) SetAt(owner, li int, x int64) { atomic.StoreInt64(&m.shards[owner][li], x) }

// MinAt atomically lowers the value at local index li of owner's shard to x;
// reports whether it decreased.
func (m *VertexWord) MinAt(owner, li int, x int64) bool { return atomicMin(&m.shards[owner][li], x) }

// MaxAt atomically raises the value at local index li of owner's shard to x;
// reports whether it increased.
func (m *VertexWord) MaxAt(owner, li int, x int64) bool { return atomicMax(&m.shards[owner][li], x) }

// AddAt atomically adds x at local index li of owner's shard and returns the
// new value.
func (m *VertexWord) AddAt(owner, li int, x int64) int64 {
	return atomic.AddInt64(&m.shards[owner][li], x)
}

// GetRelaxed loads without atomicity; safe only at quiescent points
// (between epochs) or under an external lock from the map's LockMap.
func (m *VertexWord) GetRelaxed(rank int, v distgraph.Vertex) int64 {
	return *m.slot(rank, v)
}

// SetRelaxed stores without atomicity; same discipline as GetRelaxed.
func (m *VertexWord) SetRelaxed(rank int, v distgraph.Vertex, x int64) {
	*m.slot(rank, v) = x
}

// ForEachLocal visits every vertex owned by rank with its current value.
// Not synchronized; use at quiescent points.
func (m *VertexWord) ForEachLocal(rank int, fn func(v distgraph.Vertex, x int64)) {
	for li, x := range m.shards[rank] {
		fn(m.dist.Global(rank, li), x)
	}
}

// Gather copies the whole map into a dense global slice. In-process
// convenience for validation; a real deployment would make this a
// collective.
func (m *VertexWord) Gather() []int64 {
	out := make([]int64, m.dist.NumVertices())
	for r := range m.shards {
		for li, x := range m.shards[r] {
			out[m.dist.Global(r, li)] = x
		}
	}
	return out
}

// EdgeWord is a distributed edge property map holding one int64 per stored
// edge copy. Values are indexed by EdgeRef on the edge's locality rank.
// Out-edge slots are canonical; in-edge slots are read-only mirrors
// refreshed by MirrorIn (the duplicated edge payloads of the bidirectional
// storage model).
type EdgeWord struct {
	g   *distgraph.Graph
	out [][]int64
	in  [][]int64
}

// NewEdgeWord allocates an edge word map over g with every value init.
func NewEdgeWord(g *distgraph.Graph, init int64) *EdgeWord {
	R := g.Dist().Ranks()
	m := &EdgeWord{g: g, out: make([][]int64, R), in: make([][]int64, R)}
	for r := 0; r < R; r++ {
		lg := g.Local(r)
		o := make([]int64, lg.NumOutEdges())
		for i := range o {
			o[i] = init
		}
		m.out[r] = o
		if lg.InSrc != nil {
			in := make([]int64, lg.NumInEdges())
			for i := range in {
				in[i] = init
			}
			m.in[r] = in
		}
	}
	return m
}

// WeightMap returns an EdgeWord that aliases the graph's built-in weight
// payload (no copy). It is the paper's weight property map.
func WeightMap(g *distgraph.Graph) *EdgeWord {
	R := g.Dist().Ranks()
	m := &EdgeWord{g: g, out: make([][]int64, R), in: make([][]int64, R)}
	for r := 0; r < R; r++ {
		lg := g.Local(r)
		m.out[r] = lg.OutW
		m.in[r] = lg.InW
	}
	return m
}

// Get loads e's value on its locality rank.
func (m *EdgeWord) Get(rank int, e distgraph.EdgeRef) int64 {
	if e.In {
		return atomic.LoadInt64(&m.in[rank][e.Slot])
	}
	return atomic.LoadInt64(&m.out[rank][e.Slot])
}

// Set stores x as e's value. Only canonical (out-edge) refs may be written;
// in-edge mirrors become stale until MirrorIn runs.
func (m *EdgeWord) Set(rank int, e distgraph.EdgeRef, x int64) {
	if e.In {
		panic("pmap: EdgeWord.Set through an in-edge mirror; write the canonical out-edge copy")
	}
	atomic.StoreInt64(&m.out[rank][e.Slot], x)
}

// Min atomically lowers e's canonical value to x; reports decrease.
func (m *EdgeWord) Min(rank int, e distgraph.EdgeRef, x int64) bool {
	if e.In {
		panic("pmap: EdgeWord.Min through an in-edge mirror")
	}
	return atomicMin(&m.out[rank][e.Slot], x)
}

// MirrorIn refreshes every in-edge mirror from its canonical copy.
// Collective: call at a quiescent point on all ranks (any single caller may
// also refresh all ranks in-process).
func (m *EdgeWord) MirrorIn() {
	for r := range m.in {
		lg := m.g.Local(r)
		for i := range m.in[r] {
			m.in[r][i] = m.out[lg.InCanonRank[i]][lg.InCanonSlot[i]]
		}
	}
}
