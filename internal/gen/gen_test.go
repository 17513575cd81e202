package gen

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"declpat/internal/distgraph"
)

func TestRMATDeterministicAndSized(t *testing.T) {
	n, e1 := RMAT(10, 16, Weights{Min: 1, Max: 100}, 7)
	_, e2 := RMAT(10, 16, Weights{Min: 1, Max: 100}, 7)
	if n != 1024 {
		t.Fatalf("n=%d", n)
	}
	if len(e1) != 1024*16 {
		t.Fatalf("edges=%d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, e1[i], e2[i])
		}
		if int(e1[i].Src) >= n || int(e1[i].Dst) >= n {
			t.Fatalf("edge out of range: %v", e1[i])
		}
		if e1[i].W < 1 || e1[i].W > 100 {
			t.Fatalf("weight out of range: %v", e1[i])
		}
	}
	_, e3 := RMAT(10, 16, Weights{Min: 1, Max: 100}, 8)
	same := 0
	for i := range e1 {
		if e1[i] == e3[i] {
			same++
		}
	}
	if same == len(e1) {
		t.Fatal("different seeds produced identical graphs")
	}
}

// rmatOracle is RMAT's sequential body before generation by range: one
// rand.Rand over newRNG's source, Float64 per level and Weights.draw per
// edge. It also returns how many draws it took.
func rmatOracle(scale, edgeFactor int, w Weights, seed uint64) (edges []distgraph.Edge, draws uint64) {
	const a, b, c = 0.57, 0.19, 0.19
	n := 1 << scale
	m := n * edgeFactor
	counter := &countingSource{src: rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)}
	rng := rand.New(counter)
	edges = make([]distgraph.Edge, 0, m)
	for i := 0; i < m; i++ {
		var src, dst int
		for lvl := 0; lvl < scale; lvl++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				dst |= 1 << lvl
			case r < a+b+c:
				src |= 1 << lvl
			default:
				src |= 1 << lvl
				dst |= 1 << lvl
			}
		}
		edges = append(edges, distgraph.Edge{
			Src: distgraph.Vertex(src), Dst: distgraph.Vertex(dst), W: w.draw(rng),
		})
	}
	return edges, counter.n
}

type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Uint64() uint64 { s.n++; return s.src.Uint64() }

// TestRMATMatchesOracle: generation by range reads the oracle's stream
// byte for byte, for every weight shape Int64N has (constant, power-of-two
// span, Lemire's loop) and for any core count. The last weight spec makes
// Int64N reject about one sample in four, so ranges after the first start
// shifted and the fix-up pass redraws them.
func TestRMATMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	weights := []Weights{{}, {5, 5}, {0, 63}, {1, 100}, {0, 1<<62 + 1<<61}}
	for _, w := range weights {
		for _, scale := range []int{3, 9, 13} {
			for _, seed := range []uint64{1, 7, 0xdecafbad} {
				want, draws := rmatOracle(scale, 16, w, seed)
				perEdge := uint64(scale)
				if w.Max > w.Min {
					perEdge++
				}
				if w == weights[4] && scale == 13 && draws == uint64(len(want))*perEdge {
					t.Fatalf("%+v scale %d seed %d: no sample rejected, so no range was shifted", w, scale, seed)
				}
				for _, procs := range []int{1, 2, 3} {
					runtime.GOMAXPROCS(procs)
					n, got := RMAT(scale, 16, w, seed)
					if n != 1<<scale || len(got) != len(want) {
						t.Fatalf("%+v scale %d seed %d procs %d: n=%d m=%d, want m=%d", w, scale, seed, procs, n, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%+v scale %d seed %d procs %d: edge %d = %v, want %v", w, scale, seed, procs, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestJumpPCG: jumpPCG(seed, k) is the state newRNG(seed)'s source reaches
// after k draws. A toolchain that changes PCG's constants fails here.
func TestJumpPCG(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<64 - 1} {
		for _, k := range []uint64{0, 1, 2, 63, 1000, 12345} {
			ref := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
			for range k {
				ref.Uint64()
			}
			want, _ := ref.MarshalBinary()
			got, _ := jumpPCG(seed, k).MarshalBinary()
			if string(got) != string(want) {
				t.Fatalf("seed %d k %d: state %x, want %x", seed, k, got, want)
			}
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// RMAT graphs are scale-free: the max out-degree should far exceed the
	// mean (16), unlike ER.
	n, edges := RMAT(12, 16, Weights{}, 3)
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 100 {
		t.Fatalf("RMAT max degree %d suspiciously small", max)
	}
	er := ER(n, len(edges), Weights{}, 3)
	deg2 := make([]int, n)
	for _, e := range er {
		deg2[e.Src]++
	}
	max2 := 0
	for _, d := range deg2 {
		if d > max2 {
			max2 = d
		}
	}
	if max2 >= max {
		t.Fatalf("ER max degree %d >= RMAT max degree %d", max2, max)
	}
}

func TestTorus2D(t *testing.T) {
	n, edges := Torus2D(4, 5, Weights{}, 1)
	if n != 20 || len(edges) != 40 {
		t.Fatalf("n=%d m=%d", n, len(edges))
	}
	outdeg := make([]int, n)
	indeg := make([]int, n)
	for _, e := range edges {
		outdeg[e.Src]++
		indeg[e.Dst]++
		if e.W != 1 {
			t.Fatalf("unit weights expected, got %d", e.W)
		}
	}
	for v := 0; v < n; v++ {
		if outdeg[v] != 2 || indeg[v] != 2 {
			t.Fatalf("vertex %d: outdeg=%d indeg=%d", v, outdeg[v], indeg[v])
		}
	}
}

func TestStats(t *testing.T) {
	edges := []distgraph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 0, Dst: 2, W: 2}, {Src: 1, Dst: 1, W: 9},
	}
	s := Stats(5, edges)
	if s.Vertices != 5 || s.Edges != 3 {
		t.Fatalf("%+v", s)
	}
	if s.SelfLoops != 1 {
		t.Fatalf("self-loops %d", s.SelfLoops)
	}
	if s.Isolated != 2 { // vertices 3 and 4
		t.Fatalf("isolated %d", s.Isolated)
	}
	if s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Fatalf("degrees %+v", s)
	}
	if s.MinW != 2 || s.MaxW != 9 {
		t.Fatalf("weights %+v", s)
	}
	if s.AvgDeg != 0.6 {
		t.Fatalf("avg %v", s.AvgDeg)
	}
	empty := Stats(3, nil)
	if empty.Edges != 0 || empty.Isolated != 3 {
		t.Fatalf("%+v", empty)
	}
}

func TestSmallWorld(t *testing.T) {
	edges := SmallWorld(100, 4, 0.1, Weights{}, 3)
	if len(edges) != 200 {
		t.Fatalf("edges=%d", len(edges))
	}
	rewired := 0
	for i, e := range edges {
		if int(e.Src) >= 100 || int(e.Dst) >= 100 {
			t.Fatalf("edge out of range: %v", e)
		}
		// Ring edges connect to v+1 or v+2 (mod n).
		d := (int(e.Dst) - int(e.Src) + 100) % 100
		if d != 1 && d != 2 {
			rewired++
		}
		_ = i
	}
	// beta=0.1 over 200 edges: expect ~20 rewired; allow wide slack.
	if rewired < 5 || rewired > 60 {
		t.Fatalf("rewired=%d, outside plausible range for beta=0.1", rewired)
	}
	// beta=0: pure ring.
	for _, e := range SmallWorld(50, 2, 0, Weights{}, 1) {
		if (int(e.Dst)-int(e.Src)+50)%50 != 1 {
			t.Fatalf("beta=0 produced non-ring edge %v", e)
		}
	}
	// Deterministic.
	a := SmallWorld(64, 4, 0.3, Weights{Min: 1, Max: 5}, 9)
	b := SmallWorld(64, 4, 0.3, Weights{Min: 1, Max: 5}, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
}

func TestPathStarComponents(t *testing.T) {
	p := Path(5, Weights{Min: 3, Max: 3}, 0)
	if len(p) != 4 || p[0].W != 3 {
		t.Fatalf("path: %v", p)
	}
	s := Star(6, Weights{}, 0)
	if len(s) != 5 {
		t.Fatalf("star: %v", s)
	}
	for _, e := range s {
		if e.Src != 0 {
			t.Fatalf("star edge from %d", e.Src)
		}
	}
	n, edges := Components([]int{3, 1, 4}, 0)
	if n != 8 {
		t.Fatalf("n=%d", n)
	}
	// Cycle of size 1 contributes no edges; sizes 3 and 4 contribute 3+4.
	if len(edges) != 7 {
		t.Fatalf("edges=%d", len(edges))
	}
	for _, e := range edges {
		if e.Src == distgraph.Vertex(3) || e.Dst == distgraph.Vertex(3) {
			t.Fatalf("singleton vertex 3 has an edge: %v", e)
		}
	}
}
