package algorithms

import (
	"math"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/seq"
)

func checkBC(t *testing.T, label string, got []int64, want []float64) {
	t.Helper()
	for v := range want {
		g := float64(got[v]) / float64(BCScale)
		tol := 1e-3 * (1 + math.Abs(want[v]))
		if math.Abs(g-want[v]) > tol {
			t.Fatalf("%s: bc[%d] = %g, want %g", label, v, g, want[v])
		}
	}
}

func TestBetweennessTorus(t *testing.T) {
	n, edges := gen.Torus2D(5, 5, gen.Weights{}, 0)
	sources := []distgraph.Vertex{0, 7, 13}
	want := seq.Betweenness(n, edges, sources)
	for _, sh := range []struct{ ranks, threads int }{{1, 0}, {3, 2}} {
		u := am.New(sh.ranks, am.WithThreads(sh.threads))
		eng, _ := newEngine(u, n, edges, distgraph.Options{Bidirectional: true})
		b := NewBetweenness(eng)
		u.Run(func(r *am.Rank) { b.Run(r, sources) })
		checkBC(t, "torus", b.BC.Gather(), want)
	}
}

func TestBetweennessRandom(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		n := 48
		edges := gen.ER(n, 150, gen.Weights{}, seed)
		sources := []distgraph.Vertex{0, 5, 11, 23}
		want := seq.Betweenness(n, edges, sources)
		u := am.New(2, am.WithThreads(2))
		eng, _ := newEngine(u, n, edges, distgraph.Options{Bidirectional: true})
		b := NewBetweenness(eng)
		u.Run(func(r *am.Rank) { b.Run(r, sources) })
		checkBC(t, "er", b.BC.Gather(), want)
	}
}

func TestBetweennessPath(t *testing.T) {
	// On a directed path 0→1→2→3→4 from source 0, interior vertex k has
	// dependency (number of targets beyond it): bc[1]=3, bc[2]=2, bc[3]=1.
	n := 5
	edges := gen.Path(n, gen.Weights{}, 0)
	u := am.New(2, am.WithThreads(1))
	eng, _ := newEngine(u, n, edges, distgraph.Options{Bidirectional: true})
	b := NewBetweenness(eng)
	u.Run(func(r *am.Rank) { b.Run(r, []distgraph.Vertex{0}) })
	got := b.BC.Gather()
	wantExact := []int64{0, 3 * BCScale, 2 * BCScale, 1 * BCScale, 0}
	for v := range wantExact {
		if got[v] != wantExact[v] {
			t.Fatalf("bc[%d] = %d, want %d", v, got[v], wantExact[v])
		}
	}
}

func TestBetweennessRequiresBidirectional(t *testing.T) {
	n := 4
	edges := gen.Path(n, gen.Weights{}, 0)
	eng, _ := newEngine(am.New(1), n, edges, distgraph.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-bidirectional graph")
		}
	}()
	NewBetweenness(eng)
}
