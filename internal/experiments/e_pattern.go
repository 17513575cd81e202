package experiments

import (
	"strings"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/strategy"
)

// threeLocPattern is a relax variant whose condition reads a third remote
// vertex: dist[trg] relaxed by dist[v] + weight[e] + pen[via[v]]. It
// separates the merged and unmerged plans in message count (E2), unlike the
// plain SSSP pattern where the target is the only remote read.
func threeLocPattern() *pattern.Pattern {
	p := pattern.New("SSSP3")
	dist := p.VertexProp("dist")
	pen := p.VertexProp("pen")
	via := p.VertexProp("via")
	weight := p.EdgeProp("weight")
	relax := p.Action("relax", pattern.OutEdges())
	d := pattern.Add(pattern.Add(dist.At(pattern.V()), weight.At(pattern.E())), pen.AtVal(via.At(pattern.V())))
	// The comparison is written target-first so the unmerged baseline
	// gathers dist[trg] before the penalty, evaluates at the penalty
	// vertex, and needs a third message back to trg — the §IV-A merge
	// saving. (Semantically identical to d < dist[trg].)
	relax.If(pattern.Gt(dist.At(pattern.Trg()), d)).Set(dist.At(pattern.Trg()), d)
	return p
}

// runThreeLoc executes the three-locality relax to a fixed point with the
// given plan options; pen is zero everywhere, so correct answers equal plain
// SSSP. Returns the universe (for stats) and distances.
func runThreeLoc(n int, edges []distgraph.Edge, popts pattern.PlanOptions) (*am.Universe, []int64) {
	u := am.New(4, am.WithThreads(2))
	d := distgraph.NewBlockDist(n, 4)
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, popts)
	dmap := pmap.NewVertexWord(d, pattern.Inf)
	penMap := pmap.NewVertexWord(d, 0)
	viaMap := pmap.NewVertexWord(d, 0)
	bound, err := eng.Bind(threeLocPattern(), pattern.Bindings{
		"dist": dmap, "pen": penMap, "via": viaMap, "weight": pmap.WeightMap(g),
	})
	if err != nil {
		panic(err)
	}
	relax := bound.Action("relax")
	fp := strategy.NewFixedPoint(relax)
	u.Run(func(r *am.Rank) {
		viaMap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
			viaMap.Set(r.ID(), v, int64((uint32(v)*2654435761)%uint32(n)))
		})
		var seeds []distgraph.Vertex
		if g.Owner(0) == r.ID() {
			dmap.Set(r.ID(), 0, 0)
			seeds = []distgraph.Vertex{0}
		}
		r.Barrier()
		fp.Run(r, seeds)
	})
	return u, dmap.Gather()
}

// E2Merge reproduces the §IV-A merge optimization: static plan message
// counts for merged vs unmerged evaluation across the pattern library, plus
// a runtime comparison on the three-locality relax — the merged plan sends
// fewer messages and keeps the read-modify-write of the target consistent —
// with and without direct application of its single-word hops, the send-side
// filter on its eval hop, and coalesced re-invocation.
func E2Merge(sc Scale) []*harness.Table {
	plans := harness.NewTable("E2a: compiled plan per condition (merged vs unmerged)",
		"pattern/action", "cond", "merged-msgs", "merged-sync", "unmerged-msgs", "unmerged-sync")
	lib := []func() *pattern.Pattern{
		algorithms.SSSPPattern, algorithms.BFSPattern, algorithms.WidestPattern,
		algorithms.CCPattern, threeLocPattern,
	}
	for _, mk := range lib {
		merged := compilePlans(mk(), pattern.PlanOptions{Merge: true, Fold: true})
		unmerged := compilePlans(mk(), pattern.PlanOptions{Merge: false, Fold: true})
		for i := range merged {
			for ci := range merged[i].Conds {
				plans.Add(merged[i].Action, ci,
					merged[i].Conds[ci].Messages, merged[i].Conds[ci].Sync,
					unmerged[i].Conds[ci].Messages, unmerged[i].Conds[ci].Sync)
			}
		}
	}

	n, edges := workload(sc)
	rt := harness.NewTable("E2b: runtime, three-locality relax to fixed point",
		"mode", "direct", "filter", "coalesce", "messages", "handlers", "time", "wrong", "invariant-violations")
	// The all-off rows are the paper's: every hop a message, one re-run per
	// change. The direct=on rows apply the single-word hops in place (the
	// merged plan's gather and atomic-min eval; the unmerged plan's gathers
	// only — its eval is under the lock map and its modification is a tail
	// group). The filter=on rows keep every hop a message but decline to send
	// a merged eval hop that cannot beat what the sending rank already offered
	// the vertex; the unmerged eval is not one monotone word, so its rows
	// repeat the paper's. The coalesce=on rows mail a re-run of a changed
	// vertex only when none is waiting to start, whatever the plan's shape.
	for _, v := range []struct{ direct, filter, coalesce bool }{
		{false, false, false}, {true, false, false}, {false, true, false}, {false, false, true},
	} {
		for _, merged := range []bool{true, false} {
			popts := pattern.PlanOptions{Merge: merged, Fold: true, Direct: v.direct, Filter: v.filter, Coalesce: v.coalesce}
			var u *am.Universe
			var got []int64
			d := harness.Time(func() { u, got = runThreeLoc(n, edges, popts) })
			name := "merged"
			if !merged {
				name = "unmerged"
			}
			rt.Add(row([]any{name, onOff[v.direct], onOff[v.filter], onOff[v.coalesce]}, statCells(u, "messages", "handlers"), d,
				checkSSSP(got, n, edges, 0), invariantViolations(got, edges))...)
		}
	}
	return []*harness.Table{plans, rt}
}

func compilePlans(p *pattern.Pattern, popts pattern.PlanOptions) []pattern.PlanInfo {
	u := am.New(1)
	d := distgraph.NewBlockDist(2, 1)
	g := distgraph.Build(d, []distgraph.Edge{{Src: 0, Dst: 1, W: 1}}, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, popts)
	binds := pattern.Bindings{}
	for _, pr := range p.Props {
		switch pr.Kind {
		case pattern.VertexWordProp:
			binds[pr.Name] = pmap.NewVertexWord(d, 0)
		case pattern.EdgeWordProp:
			binds[pr.Name] = pmap.WeightMap(g)
		case pattern.VertexSetProp:
			binds[pr.Name] = pmap.NewVertexSet(d, lm)
		}
	}
	bound, err := eng.Bind(p, binds)
	if err != nil {
		panic(err)
	}
	var out []pattern.PlanInfo
	for _, a := range p.Actions {
		out = append(out, bound.Action(a.Name).PlanInfo())
	}
	return out
}

// fig5Pattern reconstructs the Fig. 5 gather example: a dependency tree with
// a short branch and a long pointer chain ending at the evaluation site.
func fig5Pattern() *pattern.Pattern {
	p := pattern.New("Fig5")
	b := p.VertexProp("b")
	bval := p.VertexProp("bval")
	names := []string{"c1", "c2", "c3", "c4", "c5", "c6"}
	chain := make([]*pattern.Prop, len(names))
	for i, nm := range names {
		chain[i] = p.VertexProp(nm)
	}
	out := p.VertexProp("out")
	a := p.Action("gather", pattern.None())
	x := chain[0].At(pattern.V())
	for i := 1; i < len(chain); i++ {
		x = chain[i].AtVal(x)
	}
	bv := bval.AtVal(b.At(pattern.V()))
	a.If(pattern.Gt(pattern.Add(bv, x), pattern.C(0))).Set(out.AtVal(x), pattern.Add(bv, x))
	return p
}

// E4Planner reproduces Fig. 5's message-count comparison: the naive
// depth-first gather order with backtracking hops vs direct sibling jumps.
func E4Planner(Scale) []*harness.Table {
	t := harness.NewTable("E4: gather planner on the Fig. 5 dependency tree",
		"mode", "messages", "route")
	for _, naive := range []bool{true, false} {
		popts := pattern.PlanOptions{Merge: true, Fold: true, NaiveDFS: naive}
		pi := compilePlans(fig5Pattern(), popts)[0]
		name := "direct (optimized)"
		if naive {
			name = "naive DFS (backtracking)"
		}
		t.Add(name, pi.Conds[0].Messages, shortRoute(pi.Conds[0].Route))
	}
	return []*harness.Table{t}
}

func shortRoute(route []string) string {
	short := make([]string, len(route))
	for i, s := range route {
		// Compress val(c3[val(c2[...])]) chains for readability.
		if idx := strings.Index(s, "["); idx > 4 && strings.HasPrefix(s, "val(") {
			short[i] = s[4:idx]
		} else {
			short[i] = s
		}
	}
	return strings.Join(short, "->")
}

// E10Folding reproduces Fig. 6's payload optimization: the live payload
// carried into the eval hop with and without local-subexpression folding,
// and the effective wire bytes a slot-compacting serializer would ship.
func E10Folding(sc Scale) []*harness.Table {
	t := harness.NewTable("E10: subexpression folding (payload words into the eval hop)",
		"pattern/action", "folded-words", "raw-words", "effective-bytes/msg folded", "raw")
	lib := []func() *pattern.Pattern{algorithms.SSSPPattern, algorithms.WidestPattern, threeLocPattern}
	const header = 16 // envelope share per message
	for _, mk := range lib {
		folded := compilePlans(mk(), pattern.PlanOptions{Merge: true, Fold: true})
		raw := compilePlans(mk(), pattern.PlanOptions{Merge: true, Fold: false})
		for i := range folded {
			fw := folded[i].Conds[0].PayloadWords
			rw := raw[i].Conds[0].PayloadWords
			t.Add(folded[i].Action, fw, rw, header+8*fw+8, header+8*rw+8)
		}
	}
	return []*harness.Table{t}
}

// E11PointerJump measures the §II-B pointer-jumping action: cc_jump is a
// two-hop gather (plan), and repeated `once` rounds collapse pointer chains
// in logarithmically many rounds.
func E11PointerJump(Scale) []*harness.Table {
	plan := harness.NewTable("E11a: cc_jump compiled plan", "metric", "value")
	pi := compilePlans(algorithms.CCPattern(), PaperPlan())
	for _, a := range pi {
		if a.Action == "cc_jump" {
			plan.Add("messages per application", a.Conds[0].Messages)
			plan.Add("route", shortRoute(a.Conds[0].Route))
			plan.Add("sync", a.Conds[0].Sync)
		}
	}

	rounds := harness.NewTable("E11b: chain collapse via once(cc_jump)",
		"chain-length", "once-rounds", "messages")
	for _, L := range []int{4, 16, 64, 256} {
		u := am.New(4, am.WithThreads(1))
		d := distgraph.NewBlockDist(L, 4)
		g := distgraph.Build(d, gen.Path(L, gen.Weights{}, 0), distgraph.Options{})
		lm := pmap.NewLockMap(d, 1)
		eng := pattern.NewEngine(u, g, lm, PaperPlan())
		p := pattern.New("Jump")
		chg := p.VertexProp("chg")
		a := p.Action("cc_jump", pattern.None())
		cv := chg.At(pattern.V())
		cc := chg.AtVal(cv)
		a.If(pattern.Lt(cc, cv)).Set(chg.At(pattern.V()), cc)
		cmap := pmap.NewVertexWord(d, 0)
		bound, err := eng.Bind(p, pattern.Bindings{"chg": cmap})
		if err != nil {
			panic(err)
		}
		jump := bound.Action("cc_jump")
		nRounds := 0
		u.Run(func(r *am.Rank) {
			cmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
				if v == 0 {
					cmap.Set(r.ID(), v, 0)
				} else {
					cmap.Set(r.ID(), v, int64(v)-1)
				}
			})
			r.Barrier()
			locals := algorithms.LocalVertices(g, r)
			n := 0
			for strategy.Once(r, jump, locals) {
				n++
			}
			if r.ID() == 0 {
				nRounds = n
			}
		})
		for v, c := range cmap.Gather() {
			if c != 0 {
				panic("pointer jumping did not collapse chain at " + itoa(v))
			}
		}
		rounds.Add(row([]any{L, nRounds}, statCells(u, "messages"))...)
	}
	return []*harness.Table{plan, rounds}
}
