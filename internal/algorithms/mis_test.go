package algorithms

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/seq"
)

// checkMIS verifies independence and maximality against the edge list.
func checkMIS(t *testing.T, label string, state []int64, n int, edges []distgraph.Edge) {
	t.Helper()
	adj := make([][]distgraph.Vertex, n)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	for v := 0; v < n; v++ {
		switch state[v] {
		case misIn:
			for _, u := range adj[v] {
				if state[u] == misIn {
					t.Fatalf("%s: adjacent MIS members %d and %d", label, v, u)
				}
			}
		case misOut:
			hasMISNeighbour := false
			for _, u := range adj[v] {
				if state[u] == misIn {
					hasMISNeighbour = true
					break
				}
			}
			if !hasMISNeighbour {
				t.Fatalf("%s: excluded vertex %d has no MIS neighbour (not maximal)", label, v)
			}
		default:
			t.Fatalf("%s: vertex %d undecided after Run", label, v)
		}
	}
}

func TestMISCorrect(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		n := 256
		edges := gen.ER(n, 1000, gen.Weights{}, seed)
		// Drop self-loops for a clean MIS instance.
		var clean []distgraph.Edge
		for _, e := range edges {
			if e.Src != e.Dst {
				clean = append(clean, e)
			}
		}
		for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
			u := am.New(sh.ranks, am.WithThreads(sh.threads))
			eng, _ := newEngine(u, n, clean, distgraph.Options{Symmetrize: true})
			m := NewMIS(eng)
			u.Run(func(r *am.Rank) { m.Run(r) })
			checkMIS(t, "er", m.State.Gather(), n, clean)
		}
	}
}

func TestMISDeterministic(t *testing.T) {
	n, edges := gen.Torus2D(8, 8, gen.Weights{}, 0)
	run := func(ranks int) []int64 {
		u := am.New(ranks, am.WithThreads(2))
		eng, _ := newEngine(u, n, edges, distgraph.Options{Symmetrize: true})
		m := NewMIS(eng)
		u.Run(func(r *am.Rank) { m.Run(r) })
		return m.State.Gather()
	}
	a, b := run(1), run(4)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("state[%d] differs across machine shapes: %d vs %d", v, a[v], b[v])
		}
	}
}

func TestMISRoundsLogarithmic(t *testing.T) {
	n, edges := gen.RMAT(10, 8, gen.Weights{}, 5)
	var clean []distgraph.Edge
	for _, e := range edges {
		if e.Src != e.Dst {
			clean = append(clean, e)
		}
	}
	u := am.New(2, am.WithThreads(2))
	eng, _ := newEngine(u, n, clean, distgraph.Options{Symmetrize: true})
	m := NewMIS(eng)
	u.Run(func(r *am.Rank) { m.Run(r) })
	checkMIS(t, "rmat", m.State.Gather(), n, clean)
	if m.Rounds > 20 {
		t.Fatalf("MIS took %d rounds on 1024 vertices", m.Rounds)
	}
}

func TestBellmanFordRounds(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 40}, 15)
	want := seq.Dijkstra(n, edges, 0)
	wantDist, seqPasses := seq.BellmanFord(n, edges, 0)
	_ = wantDist
	u := am.New(3, am.WithThreads(1))
	eng, _ := newEngine(u, n, edges, distgraph.Options{})
	s := NewSSSP(eng)
	var rounds [3]int
	u.Run(func(r *am.Rank) {
		rounds[r.ID()] = s.RunBellmanFordRounds(r, 0)
	})
	checkDist(t, "bellman-ford", s.Dist.Gather(), want)
	// All ranks agree on the round count; in-round propagation can only
	// reduce it below the sequential pass count.
	if rounds[0] != rounds[1] || rounds[1] != rounds[2] {
		t.Fatalf("round counts disagree: %v", rounds)
	}
	if rounds[0] < 2 || rounds[0] > seqPasses+1 {
		t.Fatalf("rounds = %d, sequential passes = %d", rounds[0], seqPasses)
	}
}
