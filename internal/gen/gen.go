// Package gen provides deterministic workload generators for the experiment
// suite: Graph500-style RMAT graphs (the scale-free inputs the paper's
// motivation cites), Erdős–Rényi graphs, and structured graphs (torus, path,
// star) whose properties make algorithm behaviour easy to predict in tests.
package gen

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"

	"declpat/internal/distgraph"
)

// Weights configures edge weight generation: uniform integers in [Min, Max].
// The zero value produces unit weights.
type Weights struct {
	Min, Max int64
}

func (w Weights) draw(rng *rand.Rand) int64 {
	if w.Max <= w.Min {
		if w.Min == 0 {
			return 1
		}
		return w.Min
	}
	return w.Min + rng.Int64N(w.Max-w.Min+1)
}

func newRNG(seed uint64) *rand.Rand { return rand.New(jumpPCG(seed, 0)) }

// RMAT generates an RMAT graph with 2^scale vertices and edgeFactor×2^scale
// edges using the Graph500 parameters (a=0.57, b=0.19, c=0.19, d=0.05).
// Self-loops and parallel edges are kept, as in the Graph500 generator.
//
// The edges are one PCG stream, newRNG(seed), read in order: edge i takes
// scale Float64 draws for its quadrants, then its weight as Weights.draw
// takes it. Edge i is thus a pure function of (seed, i): each core
// (runtime.GOMAXPROCS) draws a range of at least ~2^13 edge ids from its
// first draw on (jumpPCG), and the edges are the same for any core count.
func RMAT(scale, edgeFactor int, w Weights, seed uint64) (n int, edges []distgraph.Edge) {
	n = 1 << scale
	m := n * edgeFactor
	edges = make([]distgraph.Edge, m)
	perEdge := uint64(scale)
	if w.Max > w.Min {
		if w.Max-w.Min+1 <= 0 {
			panic("invalid argument to Int64N") // as w.draw would
		}
		perEdge++
	}
	parts := min(runtime.GOMAXPROCS(0), 1+m>>14)
	bounds := func(p int) (lo, hi int) { return m * p / parts, m * (p + 1) / parts }
	// Each weight sample Int64N rejects shifts every later range by a draw.
	rejected := make([]uint64, parts)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo, hi := bounds(p)
			rejected[p] = rmatRange(edges[lo:hi], scale, w, jumpPCG(seed, uint64(lo)*perEdge))
		}()
	}
	wg.Wait()
	// A rejection is about span/2^64 per draw, so this pass rarely redraws:
	// after one, each later range is redrawn from its shifted first draw.
	var shift uint64
	for p := range parts {
		if lo, hi := bounds(p); shift != 0 {
			rejected[p] = rmatRange(edges[lo:hi], scale, w, jumpPCG(seed, uint64(lo)*perEdge+shift))
		}
		shift += rejected[p]
	}
	return n, edges
}

// rmatRange fills edges from src, draw for draw as rand.Rand's Float64 and
// Int64N would, and returns how many weight samples it rejected.
// Float64 is float64(x<<11>>11)/2^53, so r < t is exactly the integer test
// x<<11>>11 < ceil(t·2^53). Each (t-1-k)>>63 below is 1 when k >= t, so
// the source bit is the second (quadrants c and d) and the destination bit
// the XOR of all three (quadrants b and d).
func rmatRange(edges []distgraph.Edge, scale int, w Weights, src *rand.PCG) (rejected uint64) {
	const a, b, c = 0.57, 0.19, 0.19
	ceil53 := func(t float64) uint64 { return uint64(math.Ceil(t * (1 << 53))) }
	ta, tb, tc := ceil53(a), ceil53(a+b), ceil53(a+b+c)
	span := uint64(w.Max - w.Min + 1)
	for i := range edges {
		var s, d uint64
		for lvl := 0; lvl < scale; lvl++ {
			k := src.Uint64() << 11 >> 11
			ga, gb, gc := (ta-1-k)>>63, (tb-1-k)>>63, (tc-1-k)>>63
			s |= gb << lvl
			d |= (ga ^ gb ^ gc) << lvl
		}
		var wt int64
		switch {
		case w.Max <= w.Min:
			wt = w.draw(nil) // draws nothing
		case span&(span-1) == 0:
			wt = w.Min + int64(src.Uint64()&(span-1))
		default: // Lemire's multiply, rejecting lo < 2^64 mod span
			hi, lo := bits.Mul64(src.Uint64(), span)
			if lo < span {
				for thresh := -span % span; lo < thresh; rejected++ {
					hi, lo = bits.Mul64(src.Uint64(), span)
				}
			}
			wt = w.Min + int64(hi)
		}
		edges[i] = distgraph.Edge{Src: distgraph.Vertex(s), Dst: distgraph.Vertex(d), W: wt}
	}
	return rejected
}

// jumpPCG returns the source newRNG(seed) holds after k draws. PCG's state
// is an LCG, state·mul + inc mod 2^128 (math/rand/v2/pcg.go's constants);
// k steps of it are again an LCG, state·M + C, which repeated squaring
// builds in O(log k) steps (Brown, "Random number generation with arbitrary
// strides", 1994).
func jumpPCG(seed, k uint64) *rand.PCG {
	type u128 struct{ hi, lo uint64 }
	mul := func(x, y u128) u128 {
		hi, lo := bits.Mul64(x.lo, y.lo)
		return u128{hi + x.hi*y.lo + x.lo*y.hi, lo}
	}
	add := func(x, y u128) u128 {
		lo, carry := bits.Add64(x.lo, y.lo, 0)
		return u128{x.hi + y.hi + carry, lo}
	}
	m, c := u128{2549297995355413924, 4865540595714422341}, u128{6364136223846793005, 1442695040888963407}
	accM, accC := u128{0, 1}, u128{}
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			accM, accC = mul(accM, m), add(mul(accC, m), c)
		}
		m, c = mul(m, m), mul(add(m, u128{0, 1}), c)
	}
	s := add(mul(u128{seed, seed ^ 0x9e3779b97f4a7c15}, accM), accC)
	return rand.NewPCG(s.hi, s.lo)
}

// ER generates an Erdős–Rényi G(n, m) multigraph: m edges with independently
// uniform endpoints.
func ER(n, m int, w Weights, seed uint64) []distgraph.Edge {
	rng := newRNG(seed)
	edges := make([]distgraph.Edge, m)
	for i := range edges {
		edges[i] = distgraph.Edge{
			Src: distgraph.Vertex(rng.IntN(n)),
			Dst: distgraph.Vertex(rng.IntN(n)),
			W:   w.draw(rng),
		}
	}
	return edges
}

// Torus2D generates a directed 2D torus of rows×cols vertices; each vertex
// has edges to its right and down neighbours (wrapping). Vertex (i,j) has id
// i*cols+j.
func Torus2D(rows, cols int, w Weights, seed uint64) (n int, edges []distgraph.Edge) {
	rng := newRNG(seed)
	n = rows * cols
	edges = make([]distgraph.Edge, 0, 2*n)
	id := func(i, j int) distgraph.Vertex {
		return distgraph.Vertex(((i+rows)%rows)*cols + (j+cols)%cols)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			edges = append(edges,
				distgraph.Edge{Src: id(i, j), Dst: id(i, j+1), W: w.draw(rng)},
				distgraph.Edge{Src: id(i, j), Dst: id(i+1, j), W: w.draw(rng)},
			)
		}
	}
	return n, edges
}

// Path generates the directed path 0→1→…→n-1.
func Path(n int, w Weights, seed uint64) []distgraph.Edge {
	rng := newRNG(seed)
	edges := make([]distgraph.Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, distgraph.Edge{
			Src: distgraph.Vertex(i), Dst: distgraph.Vertex(i + 1), W: w.draw(rng),
		})
	}
	return edges
}

// Star generates edges from vertex 0 to every other vertex.
func Star(n int, w Weights, seed uint64) []distgraph.Edge {
	rng := newRNG(seed)
	edges := make([]distgraph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, distgraph.Edge{
			Src: 0, Dst: distgraph.Vertex(i), W: w.draw(rng),
		})
	}
	return edges
}

// GraphStats summarizes an edge list (used by the CLI tools to describe
// workloads).
type GraphStats struct {
	Vertices, Edges     int
	SelfLoops, Isolated int
	MaxOutDeg, MaxInDeg int
	AvgDeg              float64
	MinW, MaxW          int64
}

// Stats computes summary statistics of an edge list over n vertices.
func Stats(n int, edges []distgraph.Edge) GraphStats {
	s := GraphStats{Vertices: n, Edges: len(edges)}
	outdeg := make([]int, n)
	indeg := make([]int, n)
	if len(edges) > 0 {
		s.MinW, s.MaxW = edges[0].W, edges[0].W
	}
	for _, e := range edges {
		outdeg[e.Src]++
		indeg[e.Dst]++
		if e.Src == e.Dst {
			s.SelfLoops++
		}
		if e.W < s.MinW {
			s.MinW = e.W
		}
		if e.W > s.MaxW {
			s.MaxW = e.W
		}
	}
	for v := 0; v < n; v++ {
		if outdeg[v] > s.MaxOutDeg {
			s.MaxOutDeg = outdeg[v]
		}
		if indeg[v] > s.MaxInDeg {
			s.MaxInDeg = indeg[v]
		}
		if outdeg[v] == 0 && indeg[v] == 0 {
			s.Isolated++
		}
	}
	if n > 0 {
		s.AvgDeg = float64(len(edges)) / float64(n)
	}
	return s
}

// SmallWorld generates a Watts–Strogatz-style small-world graph: a ring
// where every vertex connects to its next k/2 clockwise neighbours, with
// each edge's far endpoint rewired to a uniform random vertex with
// probability beta. k must be even.
func SmallWorld(n, k int, beta float64, w Weights, seed uint64) []distgraph.Edge {
	if k%2 != 0 {
		panic("gen: SmallWorld requires even k")
	}
	rng := newRNG(seed)
	edges := make([]distgraph.Edge, 0, n*k/2)
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			dst := (v + j) % n
			if rng.Float64() < beta {
				dst = rng.IntN(n)
			}
			edges = append(edges, distgraph.Edge{
				Src: distgraph.Vertex(v), Dst: distgraph.Vertex(dst), W: w.draw(rng),
			})
		}
	}
	return edges
}

// Components generates disjoint unit-weight cycles of the given sizes, one
// per vertex block (for CC tests; seed is unused), and returns n.
func Components(sizes []int, seed uint64) (n int, edges []distgraph.Edge) {
	base := 0
	for _, sz := range sizes {
		for i := 0; i < sz; i++ {
			if sz == 1 {
				break
			}
			edges = append(edges, distgraph.Edge{
				Src: distgraph.Vertex(base + i),
				Dst: distgraph.Vertex(base + (i+1)%sz),
				W:   1,
			})
		}
		base += sz
	}
	return base, edges
}
