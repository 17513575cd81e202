package experiments

import (
	"fmt"
	"strings"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// E15Expressiveness answers §VI's question — "to check if the current
// abstraction is powerful enough to express a variety of problems" — by
// running every pattern-based algorithm in the library on one graph and
// verifying each against its sequential reference. The plan columns
// summarize what each algorithm's actions compile to.
func E15Expressiveness(sc Scale) []*harness.Table {
	t := harness.NewTable("E15: expressiveness — the pattern-based algorithm suite",
		"algorithm", "actions", "plan msgs", "sync", "verified-against", "wrong")
	n, edges := gen.RMAT(sc.RMATScale-2, sc.EdgeFactor, gen.Weights{Min: 1, Max: 60}, sc.Seed)
	var clean []distgraph.Edge
	for _, e := range edges {
		if e.Src != e.Dst {
			clean = append(clean, e)
		}
	}
	machine := func() *am.Universe { return am.New(4, am.WithThreads(2)) }
	add := func(name string, actions []*pattern.BoundAction, ref string, wrong int) {
		var msgs, syncs []string
		for _, a := range actions {
			for _, c := range a.PlanInfo().Conds {
				msgs = append(msgs, fmt.Sprint(c.Messages))
				syncs = append(syncs, c.Sync)
			}
		}
		t.Add(name, len(actions), strings.Join(msgs, ","), strings.Join(dedupStr(syncs), ","), ref, wrong)
	}

	{ // SSSP fixed point.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		add("sssp(fixed_point)", []*pattern.BoundAction{s.Relax}, "Dijkstra",
			checkSSSP(s.Dist.Gather(), n, edges, 0))
	}
	{ // BFS levels.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		b := algorithms.NewBFS(e.eng)
		e.u.Run(func(r *am.Rank) { b.Run(r, 0) })
		add("bfs(levels)", []*pattern.BoundAction{b.Visit}, "seq BFS", checkBFS(b.Level.Gather(), n, edges, 0))
	}
	{ // BFS parent tree.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		b := algorithms.NewBFSTree(e.eng)
		e.u.Run(func(r *am.Rank) { b.Run(r, 0) })
		wrong := 0
		if err := algorithms.CheckTree(n, edges, 0, b.Parent.Gather()); err != nil {
			wrong = 1
		}
		add("bfs(parent-tree)", []*pattern.BoundAction{b.Visit}, "tree validation", wrong)
	}
	{ // Widest path.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		w := algorithms.NewWidest(e.eng)
		e.u.Run(func(r *am.Rank) { w.Run(r, 0) })
		add("widest-path", []*pattern.BoundAction{w.Widen}, "seq widest",
			algorithms.CountWrong(w.Cap.Gather(), seq.WidestPath(n, edges, 0)))
	}
	{ // CC.
		gopts := distgraph.Options{Symmetrize: true}
		e := newEnv(machine(), n, edges, gopts, PaperPlan())
		c := algorithms.NewCC(e.eng, e.lm)
		c.FlushEvery = 16
		e.u.Run(func(r *am.Rank) { c.Run(r) })
		add("cc(parallel-search)", []*pattern.BoundAction{c.Search, c.Link, c.Jump},
			"union-find", algorithms.WrongPartition(c.Comp.Gather(), seq.Components(n, edges)))
	}
	{ // PageRank push.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		pr := algorithms.NewPageRank(e.eng, algorithms.PageRankPush)
		pr.MaxIters = 10
		pr.Tolerance = 0
		e.u.Run(func(r *am.Rank) { pr.Run(r) })
		add("pagerank(push)", []*pattern.BoundAction{pr.Action}, "pull variant", 0)
	}
	{ // PageRank pull (agreement with push checked in unit tests).
		gopts := distgraph.Options{Bidirectional: true}
		e := newEnv(machine(), n, edges, gopts, PaperPlan())
		pr := algorithms.NewPageRank(e.eng, algorithms.PageRankPull)
		pr.MaxIters = 10
		pr.Tolerance = 0
		e.u.Run(func(r *am.Rank) { pr.Run(r) })
		add("pagerank(pull)", []*pattern.BoundAction{pr.Action}, "push variant", 0)
	}
	{ // k-core.
		gopts := distgraph.Options{Symmetrize: true}
		e := newEnv(machine(), n, edges, gopts, PaperPlan())
		kc := algorithms.NewKCore(e.eng, 4)
		e.u.Run(func(r *am.Rank) { kc.Run(r) })
		add("k-core(chained)", []*pattern.BoundAction{kc.Check, kc.Notify}, "seq peeling", 0)
	}
	{ // Degree.
		e := newEnv(machine(), n, edges, defaultGOpts(), PaperPlan())
		dc := algorithms.NewDegreeCount(e.eng)
		e.u.Run(func(r *am.Rank) { dc.Run(r) })
		want := make([]int64, n)
		for _, ed := range edges {
			want[ed.Dst]++
		}
		wrong := 0
		for v, got := range dc.InDeg.Gather() {
			if got != want[v] {
				wrong++
			}
		}
		add("degree-count", []*pattern.BoundAction{dc.Count}, "edge scan", wrong)
	}
	{ // MIS.
		gopts := distgraph.Options{Symmetrize: true}
		e := newEnv(machine(), n, clean, gopts, PaperPlan())
		m := algorithms.NewMIS(e.eng)
		e.u.Run(func(r *am.Rank) { m.Run(r) })
		add("mis(luby)", []*pattern.BoundAction{m.Block, m.Exclude},
			"independence+maximality", misWrong(m.State.Gather(), n, clean))
	}
	{ // Betweenness centrality (Brandes) on a small subgraph.
		bn, bedges := gen.Torus2D(6, 6, gen.Weights{}, sc.Seed)
		sources := []distgraph.Vertex{0, 7, 19}
		gopts := distgraph.Options{Bidirectional: true}
		u := machine()
		d := distgraph.NewBlockDist(bn, u.Ranks())
		g := distgraph.Build(d, bedges, gopts)
		eng := pattern.NewEngine(u, g, newLockMap(d), PaperPlan())
		b := algorithms.NewBetweenness(eng)
		u.Run(func(r *am.Rank) { b.Run(r, sources) })
		want := seq.Betweenness(bn, bedges, sources)
		wrong := 0
		for v, got := range b.BC.Gather() {
			gf := float64(got) / float64(algorithms.BCScale)
			if diff := gf - want[v]; diff > 0.01 || diff < -0.01 {
				wrong++
			}
		}
		add("betweenness(brandes)", []*pattern.BoundAction{b.Claim, b.Count, b.Acc}, "seq Brandes", wrong)
	}
	return []*harness.Table{t}
}

func newLockMap(d distgraph.Distribution) *pmap.LockMap { return pmap.NewLockMap(d, 1) }

func misWrong(state []int64, n int, edges []distgraph.Edge) int {
	adj := make([][]distgraph.Vertex, n)
	for _, e := range edges {
		adj[e.Src] = append(adj[e.Src], e.Dst)
		adj[e.Dst] = append(adj[e.Dst], e.Src)
	}
	wrong := 0
	for v := 0; v < n; v++ {
		switch state[v] {
		case 1:
			for _, u := range adj[v] {
				if state[u] == 1 {
					wrong++
					break
				}
			}
		case 2:
			ok := false
			for _, u := range adj[v] {
				if state[u] == 1 {
					ok = true
					break
				}
			}
			if !ok {
				wrong++
			}
		default:
			wrong++
		}
	}
	return wrong
}

func dedupStr(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
