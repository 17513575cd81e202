package distgraph

import (
	"testing"
	"testing/quick"
)

func distributions(n, ranks int) map[string]Distribution {
	return map[string]Distribution{
		"block":  NewBlockDist(n, ranks),
		"cyclic": NewCyclicDist(n, ranks),
		"hash":   NewHashDist(n, ranks, 42),
	}
}

func TestDistributionRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, ranks := range []int{1, 2, 3, 8} {
			for name, d := range distributions(n, ranks) {
				total := 0
				for r := 0; r < ranks; r++ {
					total += d.LocalCount(r)
				}
				if total != n {
					t.Fatalf("%s n=%d ranks=%d: local counts sum to %d", name, n, ranks, total)
				}
				for v := Vertex(0); int(v) < n; v++ {
					o, l := d.Owner(v), d.Local(v)
					if o < 0 || o >= ranks {
						t.Fatalf("%s: owner(%d)=%d out of range", name, v, o)
					}
					if l < 0 || l >= d.LocalCount(o) {
						t.Fatalf("%s: local(%d)=%d out of range (count %d)", name, v, l, d.LocalCount(o))
					}
					if g := d.Global(o, l); g != v {
						t.Fatalf("%s: Global(Owner,Local) of %d = %d", name, v, g)
					}
				}
			}
		}
	}
}

func TestDistributionRoundTripQuick(t *testing.T) {
	f := func(nRaw uint16, ranksRaw uint8, vRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		ranks := int(ranksRaw)%7 + 1
		v := Vertex(int(vRaw) % n)
		for _, d := range distributions(n, ranks) {
			if d.Global(d.Owner(v), d.Local(v)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// testEdges is a small weighted digraph used across builder tests.
//
//	0 -> 1 (w 5), 0 -> 2 (w 3), 1 -> 2 (w 1), 2 -> 3 (w 7), 3 -> 0 (w 2),
//	1 -> 1 self-loop (w 9), plus a parallel edge 0 -> 1 (w 6).
func testEdges() []Edge {
	return []Edge{
		{0, 1, 5}, {0, 2, 3}, {1, 2, 1}, {2, 3, 7}, {3, 0, 2}, {1, 1, 9}, {0, 1, 6},
	}
}

func collectOut(g *Graph, v Vertex) map[[2]Vertex][]int64 {
	got := map[[2]Vertex][]int64{}
	r := g.Owner(v)
	g.ForOutEdges(r, v, func(e EdgeRef) {
		k := [2]Vertex{e.Src(), e.Trg()}
		got[k] = append(got[k], g.Weight(r, e))
	})
	return got
}

func TestBuildDirected(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		d := NewBlockDist(4, ranks)
		g := Build(d, testEdges(), Options{})
		if g.NumStoredEdges() != 7 {
			t.Fatalf("ranks=%d: stored %d edges, want 7", ranks, g.NumStoredEdges())
		}
		out0 := collectOut(g, 0)
		if len(out0[[2]Vertex{0, 1}]) != 2 {
			t.Fatalf("ranks=%d: parallel edges 0->1 = %v", ranks, out0[[2]Vertex{0, 1}])
		}
		ws := out0[[2]Vertex{0, 1}]
		if !(ws[0] == 5 && ws[1] == 6 || ws[0] == 6 && ws[1] == 5) {
			t.Fatalf("weights of 0->1: %v", ws)
		}
		if g.OutDegree(g.Owner(1), 1) != 2 { // 1->2 and self-loop
			t.Fatalf("outdeg(1) = %d", g.OutDegree(g.Owner(1), 1))
		}
		if got := collectOut(g, 1)[[2]Vertex{1, 1}]; len(got) != 1 || got[0] != 9 {
			t.Fatalf("self-loop: %v", got)
		}
	}
}

func TestBuildSymmetrize(t *testing.T) {
	d := NewCyclicDist(4, 3)
	g := Build(d, testEdges(), Options{Symmetrize: true})
	if g.NumStoredEdges() != 14 {
		t.Fatalf("stored %d, want 14", g.NumStoredEdges())
	}
	// 1's adjacency now includes 0 (reverse of 0->1, twice), 2, and itself twice.
	deg := g.OutDegree(g.Owner(1), 1)
	if deg != 6 { // fwd: 1->2, 1->1; rev: 1->0 ×2, 1->1, 2->1 reversed = 1? wait
		// fwd copies from 1: (1,2),(1,1) = 2. rev copies to 1: rev of (0,1)w5,
		// (0,1)w6, (1,1) = 3 more, and rev of (1,2) lands at 2 not 1.
		// total = 2 + 3 = 5... recompute in the assertion below.
		_ = deg
	}
	want := 0
	for _, e := range testEdges() {
		if e.Src == 1 {
			want++
		}
		if e.Dst == 1 {
			want++
		}
	}
	if deg != want {
		t.Fatalf("outdeg(1) after symmetrize = %d, want %d", deg, want)
	}
}

func TestBuildBidirectional(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		d := NewBlockDist(4, ranks)
		g := Build(d, testEdges(), Options{Bidirectional: true})
		// In-edges of 1: 0->1 (w5), 0->1 (w6), 1->1 (w9).
		r := g.Owner(1)
		var ws []int64
		g.ForInEdges(r, 1, func(e EdgeRef) {
			if e.Trg() != 1 {
				t.Fatalf("in-edge of 1 with trg %d", e.Trg())
			}
			if !e.In {
				t.Fatal("in-edge ref not marked In")
			}
			ws = append(ws, g.Weight(r, e))
		})
		sum := int64(0)
		for _, w := range ws {
			sum += w
		}
		if len(ws) != 3 || sum != 20 {
			t.Fatalf("in-edges of 1: weights %v", ws)
		}
		// Canonical refs round-trip: every in-edge's canon slot holds the
		// same weight.
		lg := g.Local(r)
		li := g.Dist().Local(1)
		for s := lg.InIndex[li]; s < lg.InIndex[li+1]; s++ {
			cr, cs := lg.InCanonRank[s], lg.InCanonSlot[s]
			if g.Local(int(cr)).OutW[cs] != lg.InW[s] {
				t.Fatalf("canon weight mismatch at in-slot %d", s)
			}
		}
	}
}

func TestForInEdgesWithoutBidirectionalPanics(t *testing.T) {
	g := Build(NewBlockDist(4, 1), testEdges(), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.ForInEdges(0, 1, func(EdgeRef) {})
}

func TestRemoteAccessPanics(t *testing.T) {
	g := Build(NewBlockDist(4, 2), testEdges(), Options{})
	wrong := 1 - g.Owner(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on remote ForOutEdges")
		}
	}()
	g.ForOutEdges(wrong, 0, func(EdgeRef) {})
}

func TestEdgeRefLocality(t *testing.T) {
	g := Build(NewBlockDist(4, 2), testEdges(), Options{Bidirectional: true})
	for r := 0; r < 2; r++ {
		lg := g.Local(r)
		for li := 0; li < lg.NumLocal(); li++ {
			v := g.Dist().Global(r, li)
			g.ForOutEdges(r, v, func(e EdgeRef) {
				if e.GenVertex() != v || e.Src() != v {
					t.Fatalf("out-edge gen vertex %d != %d", e.GenVertex(), v)
				}
			})
			g.ForInEdges(r, v, func(e EdgeRef) {
				if e.GenVertex() != v || e.Trg() != v {
					t.Fatalf("in-edge gen vertex %d != %d", e.GenVertex(), v)
				}
			})
		}
	}
}

// Property: for any random edge list, the multiset of stored (src,dst,w)
// triples equals the input (directed build), regardless of distribution.
func TestBuildPreservesEdgesQuick(t *testing.T) {
	f := func(raw []uint32, ranksRaw uint8) bool {
		const n = 16
		ranks := int(ranksRaw)%4 + 1
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				Src: Vertex(raw[i] % n), Dst: Vertex(raw[i+1] % n),
				W: int64(raw[i]%100) + 1,
			})
		}
		for name, d := range distributions(n, ranks) {
			g := Build(d, edges, Options{})
			count := func(set map[[3]int64]int, add bool) {
				for r := 0; r < ranks; r++ {
					lg := g.Local(r)
					for li := 0; li < lg.NumLocal(); li++ {
						v := d.Global(r, li)
						g.ForOutEdges(r, v, func(e EdgeRef) {
							k := [3]int64{int64(e.Src()), int64(e.Trg()), g.Weight(r, e)}
							if add {
								set[k]++
							} else {
								set[k]--
							}
						})
					}
				}
			}
			set := map[[3]int64]int{}
			count(set, true)
			for _, e := range edges {
				set[[3]int64{int64(e.Src), int64(e.Dst), e.W}]--
			}
			for _, c := range set {
				if c != 0 {
					_ = name
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
