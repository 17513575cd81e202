package algorithms

import (
	"math"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/seq"
)

// seqPageRank is a float64 reference implementation matching the
// fixed-point solver's update rule.
func seqPageRank(n int, edges []distgraph.Edge, damping float64, iters int) []float64 {
	outdeg := make([]int, n)
	for _, e := range edges {
		outdeg[e.Src]++
	}
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outdeg[v] == 0 {
				dangling += rank[v]
			}
		}
		for _, e := range edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outdeg[e.Src])
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := 0; v < n; v++ {
			rank[v] = next[v] + base
		}
	}
	return rank
}

func TestPageRankPushMatchesReference(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{}, 61)
	const iters = 20
	want := seqPageRank(n, edges, 0.85, iters)
	for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
		u := am.New(sh.ranks, am.WithThreads(sh.threads))
		eng, _ := newEngine(u, n, edges, distgraph.Options{})
		pr := NewPageRank(eng, PageRankPush)
		pr.MaxIters = iters
		pr.Tolerance = 0 // run all iterations like the reference
		u.Run(func(r *am.Rank) { pr.Run(r) })
		got := pr.Rank.Gather()
		for v := range want {
			gf := float64(got[v]) / float64(PRScale)
			if math.Abs(gf-want[v]) > 1e-5 {
				t.Fatalf("%dx%d: rank[%d] = %g, want %g", sh.ranks, sh.threads, v, gf, want[v])
			}
		}
	}
}

func TestPageRankPullMatchesPush(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{}, 62)
	const iters = 15
	run := func(mode PageRankMode, gopts distgraph.Options) []int64 {
		u := am.New(3, am.WithThreads(1))
		eng, _ := newEngine(u, n, edges, gopts)
		pr := NewPageRank(eng, mode)
		pr.MaxIters = iters
		pr.Tolerance = 0
		u.Run(func(r *am.Rank) { pr.Run(r) })
		return pr.Rank.Gather()
	}
	push := run(PageRankPush, distgraph.Options{})
	pull := run(PageRankPull, distgraph.Options{Bidirectional: true})
	for v := range push {
		if push[v] != pull[v] {
			t.Fatalf("rank[%d]: push=%d pull=%d", v, push[v], pull[v])
		}
	}
}

// TestPageRankPlanShapes: push is one message per edge (atomic add at trg);
// pull is a two-hop gather over in-edges.
func TestPageRankPlanShapes(t *testing.T) {
	n, edges := gen.Torus2D(4, 4, gen.Weights{}, 0)
	eng, _ := newEngine(am.New(1), n, edges, distgraph.Options{Bidirectional: true})
	push := NewPageRank(eng, PageRankPush)
	pull := NewPageRank(eng, PageRankPull)
	pc := push.Action.PlanInfo().Conds[0]
	if pc.Messages != 1 || pc.Sync != "atomic-add" {
		t.Errorf("push plan: %+v", pc)
	}
	gc := pull.Action.PlanInfo().Conds[0]
	if gc.Messages != 2 {
		t.Errorf("pull plan should be a two-hop gather: %+v", gc)
	}
}

// seqKCore peels iteratively on the symmetrized graph.
func seqKCore(n int, edges []distgraph.Edge, k int64) []bool {
	deg := make([]int64, n)
	adj := make([][]distgraph.Vertex, n)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
		deg[e.Src]++
		deg[e.Dst]++
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	queue := []distgraph.Vertex{}
	for v := 0; v < n; v++ {
		if deg[v] < k {
			alive[v] = false
			queue = append(queue, distgraph.Vertex(v))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj[v] {
			deg[u]--
			if alive[u] && deg[u] < k {
				alive[u] = false
				queue = append(queue, u)
			}
		}
	}
	return alive
}

func TestKCoreMatchesSequential(t *testing.T) {
	n, edges := gen.RMAT(8, 6, gen.Weights{}, 71)
	for _, k := range []int64{2, 4, 8} {
		want := seqKCore(n, edges, k)
		for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
			u := am.New(sh.ranks, am.WithThreads(sh.threads))
			eng, _ := newEngine(u, n, edges, distgraph.Options{Symmetrize: true})
			kc := NewKCore(eng, k)
			u.Run(func(r *am.Rank) { kc.Run(r) })
			got := kc.Alive.Gather()
			for v := range want {
				if (got[v] == 1) != want[v] {
					t.Fatalf("k=%d %dx%d: alive[%d]=%d want %v", k, sh.ranks, sh.threads, v, got[v], want[v])
				}
			}
		}
	}
}

func TestKCoreChainedWorkHooks(t *testing.T) {
	// A path graph has no 2-core: everything peels away through chained
	// check->notify->check work items.
	n := 32
	edges := gen.Path(n, gen.Weights{}, 0)
	u := am.New(2, am.WithThreads(1))
	eng, _ := newEngine(u, n, edges, distgraph.Options{Symmetrize: true})
	kc := NewKCore(eng, 2)
	u.Run(func(r *am.Rank) { kc.Run(r) })
	for v, a := range kc.Alive.Gather() {
		if a != 0 {
			t.Fatalf("alive[%d]=%d on a path (no 2-core)", v, a)
		}
	}
	if kc.Notify.Stats.Invocations.Load() == 0 {
		t.Error("notify was never chained from check")
	}
	// A cycle IS its own 2-core: nothing peels.
	n2, edges2 := gen.Components([]int{16}, 0)
	u2 := am.New(2, am.WithThreads(1))
	eng2, _ := newEngine(u2, n2, edges2, distgraph.Options{Symmetrize: true})
	kc2 := NewKCore(eng2, 2)
	u2.Run(func(r *am.Rank) { kc2.Run(r) })
	for v, a := range kc2.Alive.Gather() {
		if a != 1 {
			t.Fatalf("cycle vertex %d peeled from its own 2-core", v)
		}
	}
}

func TestBFSTreeValid(t *testing.T) {
	n, edges := gen.RMAT(9, 8, gen.Weights{}, 81)
	depths := seq.BFS(n, edges, 0)
	reachable := make([]bool, n)
	for v := range depths {
		reachable[v] = depths[v] != seq.Inf
	}
	for _, sh := range []struct{ ranks, threads int }{{1, 0}, {4, 2}} {
		u := am.New(sh.ranks, am.WithThreads(sh.threads))
		eng, _ := newEngine(u, n, edges, distgraph.Options{})
		b := NewBFSTree(eng)
		u.Run(func(r *am.Rank) { b.Run(r, 0) })
		if err := ValidateTree(n, edges, 0, b.Parent.Gather(), reachable); err != nil {
			t.Fatalf("%dx%d: %v", sh.ranks, sh.threads, err)
		}
	}
}

func TestValidateTreeRejectsBadTrees(t *testing.T) {
	edges := []distgraph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	reachable := []bool{true, true, true}
	// Parent edge not in graph.
	if err := ValidateTree(3, edges, 0, []int64{0, 0, 0}, reachable); err == nil {
		t.Error("accepted tree edge 0->2 not in graph")
	}
	// Missing parent for a reachable vertex.
	if err := ValidateTree(3, edges, 0, []int64{0, 0, -1}, reachable); err == nil {
		t.Error("accepted missing parent")
	}
	// Valid tree passes.
	if err := ValidateTree(3, edges, 0, []int64{0, 0, 1}, reachable); err != nil {
		t.Errorf("rejected valid tree: %v", err)
	}
	// Cycle between 1 and 2 (parent edges exist in a symmetric graph).
	edges2 := []distgraph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}}
	if err := ValidateTree(3, edges2, 0, []int64{0, 2, 1}, reachable); err == nil {
		t.Error("accepted cyclic parents")
	}
}
