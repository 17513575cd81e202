package distgraph

import (
	"fmt"
	"sort"
)

// Vertex is a global vertex identifier.
type Vertex uint32

// NilVertex is the sentinel "no vertex" value (the paper's NULL).
const NilVertex Vertex = ^Vertex(0)

// Distribution maps global vertices to owning ranks and dense per-rank local
// indices. Implementations must be pure functions of the vertex id so every
// rank computes identical answers (the basis of object-based addressing,
// paper §IV-D).
type Distribution interface {
	// Owner returns the rank that stores v.
	Owner(v Vertex) int
	// Local returns v's dense index within its owner's storage.
	Local(v Vertex) int
	// Global inverts (owner, local) back to the vertex id.
	Global(owner, local int) Vertex
	// LocalCount returns the number of vertices stored on rank.
	LocalCount(rank int) int
	// NumVertices returns the global vertex count.
	NumVertices() int
	// Ranks returns the number of ranks.
	Ranks() int
}

// BlockDist assigns contiguous blocks of ⌈n/ranks⌉ vertices per rank, the
// default distribution of distributed graph libraries such as PBGL.
type BlockDist struct {
	n, ranks, block int
}

// NewBlockDist creates a block distribution of n vertices over ranks.
func NewBlockDist(n, ranks int) BlockDist {
	if n < 0 || ranks <= 0 {
		panic(fmt.Sprintf("distgraph: invalid block distribution n=%d ranks=%d", n, ranks))
	}
	block := (n + ranks - 1) / ranks
	if block == 0 {
		block = 1
	}
	return BlockDist{n: n, ranks: ranks, block: block}
}

// BlockSize returns the number of consecutive vertices per rank, ⌈n/ranks⌉
// (at least 1): Owner(v) = v / BlockSize(), Local(v) = v % BlockSize().
func (d BlockDist) BlockSize() int { return d.block }

func (d BlockDist) Owner(v Vertex) int { return int(v) / d.block }
func (d BlockDist) Local(v Vertex) int { return int(v) % d.block }
func (d BlockDist) Global(owner, local int) Vertex {
	return Vertex(owner*d.block + local)
}
func (d BlockDist) LocalCount(rank int) int {
	lo := rank * d.block
	if lo >= d.n {
		return 0
	}
	hi := lo + d.block
	if hi > d.n {
		hi = d.n
	}
	return hi - lo
}
func (d BlockDist) NumVertices() int { return d.n }
func (d BlockDist) Ranks() int       { return d.ranks }

// CyclicDist deals vertices round-robin across ranks (vertex v lives on rank
// v mod ranks), which balances scale-free degree distributions better than
// blocks.
type CyclicDist struct {
	n, ranks int
}

// NewCyclicDist creates a cyclic distribution of n vertices over ranks.
func NewCyclicDist(n, ranks int) CyclicDist {
	if n < 0 || ranks <= 0 {
		panic(fmt.Sprintf("distgraph: invalid cyclic distribution n=%d ranks=%d", n, ranks))
	}
	return CyclicDist{n: n, ranks: ranks}
}

func (d CyclicDist) Owner(v Vertex) int { return int(v) % d.ranks }
func (d CyclicDist) Local(v Vertex) int { return int(v) / d.ranks }
func (d CyclicDist) Global(owner, local int) Vertex {
	return Vertex(local*d.ranks + owner)
}
func (d CyclicDist) LocalCount(rank int) int {
	return (d.n - rank + d.ranks - 1) / d.ranks
}
func (d CyclicDist) NumVertices() int { return d.n }
func (d CyclicDist) Ranks() int       { return d.ranks }

// HashDist scrambles vertex ids with a multiplicative hash before block
// assignment, decorrelating ownership from id locality (useful when the
// generator emits ids with structure, e.g. grid graphs).
type HashDist struct {
	n, ranks int
	perm     []Vertex // hash-ordered permutation position of each vertex
	inv      []Vertex
	counts   []int
	starts   []int
}

// NewHashDist creates a hashed distribution of n vertices over ranks. It
// materializes the permutation (O(n) memory) so Global stays O(1).
func NewHashDist(n, ranks int, seed uint64) *HashDist {
	if n < 0 || ranks <= 0 {
		panic(fmt.Sprintf("distgraph: invalid hash distribution n=%d ranks=%d", n, ranks))
	}
	d := &HashDist{n: n, ranks: ranks}
	type kv struct {
		h uint64
		v Vertex
	}
	keys := make([]kv, n)
	for i := range keys {
		x := uint64(i) + seed
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		keys[i] = kv{h: x, v: Vertex(i)}
	}
	// Sort by hash; ties broken by id for determinism.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].h != keys[j].h {
			return keys[i].h < keys[j].h
		}
		return keys[i].v < keys[j].v
	})
	d.perm = make([]Vertex, n) // vertex -> position
	d.inv = make([]Vertex, n)  // position -> vertex
	for pos, k := range keys {
		d.perm[k.v] = Vertex(pos)
		d.inv[pos] = k.v
	}
	block := (n + ranks - 1) / ranks
	if block == 0 {
		block = 1
	}
	d.counts = make([]int, ranks)
	d.starts = make([]int, ranks)
	for r := 0; r < ranks; r++ {
		lo := r * block
		if lo > n {
			lo = n
		}
		hi := lo + block
		if hi > n {
			hi = n
		}
		d.starts[r] = lo
		d.counts[r] = hi - lo
	}
	return d
}

func (d *HashDist) block() int {
	b := (d.n + d.ranks - 1) / d.ranks
	if b == 0 {
		b = 1
	}
	return b
}

func (d *HashDist) Owner(v Vertex) int { return int(d.perm[v]) / d.block() }
func (d *HashDist) Local(v Vertex) int { return int(d.perm[v]) % d.block() }
func (d *HashDist) Global(owner, local int) Vertex {
	return d.inv[owner*d.block()+local]
}
func (d *HashDist) LocalCount(rank int) int { return d.counts[rank] }
func (d *HashDist) NumVertices() int        { return d.n }
func (d *HashDist) Ranks() int              { return d.ranks }
