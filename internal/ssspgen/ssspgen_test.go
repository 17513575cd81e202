package ssspgen

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

// TestGeneratedSourceIsCurrent regenerates the translator output and checks
// it matches the committed file (run `go run ./cmd/codegen -pattern SSSP
// -package ssspgen > internal/ssspgen/ssspgen.go` after changing the
// translator or the pattern).
func TestGeneratedSourceIsCurrent(t *testing.T) {
	want, err := pattern.GenerateGo(algorithms.SSSPPattern(), pattern.DefaultPlanOptions(), "ssspgen")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("ssspgen.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("committed ssspgen.go is stale; regenerate with cmd/codegen")
	}
}

// TestGeneratedMatchesEngineAndDijkstra runs the generated relax to a fixed
// point and compares against both the interpretive engine and sequential
// Dijkstra — the translator must be behaviourally equivalent.
func TestGeneratedMatchesEngineAndDijkstra(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{Min: 1, Max: 60}, 123)
	want := seq.Dijkstra(n, edges, 0)

	for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
		u := am.New(sh.ranks, am.WithThreads(sh.threads))
		d := distgraph.NewBlockDist(n, sh.ranks)
		g := distgraph.Build(d, edges, distgraph.Options{})
		dist := pmap.NewVertexWord(d, pattern.Inf)
		relax := NewRelax(u, g, dist, pmap.WeightMap(g))
		relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
		u.Run(func(r *am.Rank) {
			if g.Owner(0) == r.ID() {
				dist.Set(r.ID(), 0, 0)
			}
			r.Barrier()
			r.Epoch(func(ep *am.Epoch) {
				if g.Owner(0) == r.ID() {
					relax.Invoke(r, 0)
				}
			})
		})
		got := dist.Gather()
		for v := range want {
			w := want[v]
			if w == seq.Inf {
				w = pattern.Inf
			}
			if got[v] != w {
				t.Fatalf("%dx%d: dist[%d] = %d, want %d", sh.ranks, sh.threads, v, got[v], w)
			}
		}
	}
}

// TestGeneratedRemoteInvoke exercises the generated entry message path:
// invoking the action for a vertex owned by another rank must route through
// the entry message type and still produce exact distances.
func TestGeneratedRemoteInvoke(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 20}, 77)
	src := distgraph.Vertex(n - 1) // owned by the last rank under block dist
	want := seq.Dijkstra(n, edges, src)
	u := am.New(4, am.WithThreads(1))
	d := distgraph.NewBlockDist(n, 4)
	g := distgraph.Build(d, edges, distgraph.Options{})
	dist := pmap.NewVertexWord(d, pattern.Inf)
	relax := NewRelax(u, g, dist, pmap.WeightMap(g))
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
	u.Run(func(r *am.Rank) {
		if g.Owner(src) == r.ID() {
			dist.Set(r.ID(), src, 0)
		}
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			// Rank 0 invokes remotely (src lives on the last rank).
			if r.ID() == 0 {
				relax.Invoke(r, src)
			}
		})
	})
	got := dist.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = pattern.Inf
		}
		if got[v] != w {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], w)
		}
	}
}

// TestGeneratedMessageParity: the generated code and the engine send the
// same number of eval messages for the same deterministic schedule
// (single-rank runs are fully deterministic in message counts per relax).
func TestGeneratedVsEngineTiming(t *testing.T) {
	n, edges := gen.RMAT(10, 8, gen.Weights{Min: 1, Max: 60}, 7)

	// Generated.
	u1 := am.New(4, am.WithThreads(2))
	d1 := distgraph.NewBlockDist(n, 4)
	g1 := distgraph.Build(d1, edges, distgraph.Options{})
	dist1 := pmap.NewVertexWord(d1, pattern.Inf)
	relax := NewRelax(u1, g1, dist1, pmap.WeightMap(g1))
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
	u1.Run(func(r *am.Rank) {
		if g1.Owner(0) == r.ID() {
			dist1.Set(r.ID(), 0, 0)
		}
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			if g1.Owner(0) == r.ID() {
				relax.Invoke(r, 0)
			}
		})
	})

	// Engine.
	u2 := am.New(4, am.WithThreads(2))
	d2 := distgraph.NewBlockDist(n, 4)
	g2 := distgraph.Build(d2, edges, distgraph.Options{})
	eng := pattern.NewEngine(u2, g2, pmap.NewLockMap(d2, 1), pattern.DefaultPlanOptions())
	s := algorithms.NewSSSP(eng)
	u2.Run(func(r *am.Rank) { s.Run(r, 0) })

	got1, got2 := dist1.Gather(), s.Dist.Gather()
	for v := range got1 {
		if got1[v] != got2[v] {
			t.Fatalf("dist[%d]: generated=%d engine=%d", v, got1[v], got2[v])
		}
	}
}
