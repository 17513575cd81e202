package bfsgen

import (
	"os"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

func TestGeneratedSourceIsCurrent(t *testing.T) {
	want, err := pattern.GenerateGo(algorithms.BFSPattern(), pattern.DefaultPlanOptions(), "bfsgen")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("bfsgen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("committed bfsgen.go is stale; regenerate with cmd/codegen")
	}
}

func TestGeneratedBFSMatchesSequential(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{}, 321)
	want := seq.BFS(n, edges, 0)
	u := am.New(4, am.WithThreads(2))
	d := distgraph.NewBlockDist(n, 4)
	g := distgraph.Build(d, edges, distgraph.Options{})
	lvl := pmap.NewVertexWord(d, pattern.Inf)
	bfs := NewBfs(u, g, lvl)
	bfs.SetWork(func(r *am.Rank, v distgraph.Vertex) { bfs.InvokeAsync(r, v) })
	u.Run(func(r *am.Rank) {
		if g.Owner(0) == r.ID() {
			lvl.Set(r.ID(), 0, 0)
		}
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			if g.Owner(0) == r.ID() {
				bfs.Invoke(r, 0)
			}
		})
	})
	got := lvl.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = pattern.Inf
		}
		if got[v] != w {
			t.Fatalf("lvl[%d] = %d, want %d", v, got[v], w)
		}
	}
}
