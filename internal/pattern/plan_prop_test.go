package pattern

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// randomPattern builds a random but well-formed single-action pattern:
// vertex properties p0..p4 (p0 is the modification target prop), an edge
// property, a random generator, and 1–3 conditions over random expressions
// including pointer chains up to depth 2.
func randomPattern(rng *rand.Rand) *Pattern {
	p := New("R")
	props := []*Prop{
		p.VertexProp("p0"), p.VertexProp("p1"), p.VertexProp("p2"),
		p.VertexProp("p3"), p.VertexProp("p4"),
	}
	w := p.EdgeProp("w")
	gens := []Generator{None(), OutEdges(), InEdges(), Adj()}
	gen := gens[rng.IntN(len(gens))]
	a := p.Action("act", gen)

	// locs valid for the generator.
	locs := []Loc{V()}
	switch gen.Kind {
	case GenOutEdges, GenInEdges:
		locs = append(locs, Trg(), Src())
	case GenAdj:
		locs = append(locs, U())
	}

	var randAccess func(depth int) Expr
	randAccess = func(depth int) Expr {
		pr := props[rng.IntN(len(props))]
		if depth > 0 && rng.IntN(3) == 0 {
			return pr.AtVal(randAccess(depth - 1).(AccessExpr))
		}
		if gen.Kind == GenOutEdges || gen.Kind == GenInEdges {
			if rng.IntN(5) == 0 {
				return w.At(E())
			}
		}
		return pr.At(locs[rng.IntN(len(locs))])
	}
	var randExpr func(depth int) Expr
	randExpr = func(depth int) Expr {
		if depth == 0 || rng.IntN(3) == 0 {
			switch rng.IntN(3) {
			case 0:
				return C(int64(rng.IntN(100)))
			case 1:
				return Vtx(locs[rng.IntN(len(locs))])
			default:
				return randAccess(2)
			}
		}
		ops := []func(a, b Expr) Expr{Add, Sub, MinE, MaxE, Lt, Gt, Eq, And, Or}
		return ops[rng.IntN(len(ops))](randExpr(depth-1), randExpr(depth-1))
	}

	nconds := 1 + rng.IntN(3)
	for i := 0; i < nconds; i++ {
		var cb *CondBuilder
		if i > 0 && rng.IntN(2) == 0 {
			cb = a.Elif(randExpr(2))
		} else {
			cb = a.If(randExpr(2))
		}
		nmods := 1 + rng.IntN(2)
		for m := 0; m < nmods; m++ {
			target := randAccess(1)
			ops := []ModOp{OpAssign, OpAssignMin, OpAssignMax, OpAssignAdd}
			switch ops[rng.IntN(len(ops))] {
			case OpAssign:
				cb.Set(target, randExpr(1))
			case OpAssignMin:
				cb.SetMin(target, randExpr(1))
			case OpAssignMax:
				cb.SetMax(target, randExpr(1))
			case OpAssignAdd:
				cb.AddTo(target, randExpr(1))
			}
		}
	}
	return p
}

// TestPlannerPropertiesRandom compiles random patterns under every option
// combination and checks structural invariants of the plans.
func TestPlannerPropertiesRandom(t *testing.T) {
	optsList := []PlanOptions{
		{Merge: true, Fold: true, EarlyExit: true, Direct: true, Filter: true, Coalesce: true},
		{Merge: true, Fold: true},
		{Merge: true, Fold: false, Filter: true},
		{Merge: false, Fold: true, Direct: true, Filter: true, Coalesce: true},
		{Merge: true, Fold: true, NaiveDFS: true, Direct: true},
	}
	compiled := 0
	refused := map[string]int{}
	for seed := uint64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		p := randomPattern(rng)
		var infos []PlanInfo
		for _, opts := range optsList {
			// Compile a fresh copy: compile mutates the action's
			// canonical accesses.
			p2 := clonePattern(t, p, rng, seed)
			ca, err := compileAction(p2.Actions[0], 0, opts)
			if err != nil {
				if r := randomRefusal(err); r != "" {
					refused[r]++
					continue
				}
				t.Fatalf("seed %d opts %+v: %v\npattern:\n%s", seed, opts, err, p2)
			}
			compiled++
			pi := ca.info()
			infos = append(infos, pi)
			checkPlanInvariants(t, seed, opts, ca)
		}
		// Naive DFS never uses fewer messages than direct order.
		if len(infos) == 5 {
			for c := range infos[0].Conds {
				direct := infos[1].Conds[c].Messages // Merge+Fold, no naive
				naive := infos[4].Conds[c].Messages
				if naive < direct {
					t.Fatalf("seed %d cond %d: naive=%d < direct=%d", seed, c, naive, direct)
				}
			}
		}
	}
	t.Logf("%d plans compiled; refused: %v", compiled, refused)
	if compiled < 1000 {
		t.Fatalf("only %d plans compiled; generator too restrictive", compiled)
	}
}

// clonePattern rebuilds the pattern from the same seed (compileAction
// mutates shared Access nodes, so each compile needs a fresh tree).
func clonePattern(t *testing.T, _ *Pattern, _ *rand.Rand, seed uint64) *Pattern {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 99))
	return randomPattern(rng)
}

// randomRefusal names the acceptable reason a generated pattern fails to
// compile — too many payload slots, a step that would carry more than a hop
// message holds, a write through an in-edge mirror — or "" for any other
// error.
func randomRefusal(err error) string {
	for _, r := range []string{"payload slots", "words (max", "in-edges"} {
		if containsStr(err.Error(), r) {
			return r
		}
	}
	return ""
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// checkPlanInvariants asserts structural plan invariants:
//   - slots fit in MaxSlots and every load/fold writes a distinct slot at
//     most once per hop;
//   - in merge mode the final hop of each condition is at the first
//     modification group's locality;
//   - every access needed by the (rewritten) test/rhs is loaded at some hop
//     (entry included) before or at the eval hop;
//   - condition chaining indices are within range;
//   - a hop is marked direct iff Direct is on and the hop has no lock (it is
//     a gather hop, or an eval hop merged with exactly one modification and
//     classified atomic), every hop loads only word-sized values, and tail
//     modification groups are never listed as direct;
//   - a condition is filter-eligible only with Filter on, and then its eval
//     hop is one atomic min or max (never lock, add or insert) on a vertex
//     word, merged with exactly one modification, followed by no tail group,
//     offering a value that reads nothing loaded at the eval hop itself; the
//     entry hop is not a condition's hop and is never the one marked;
//   - an action is coalesced iff Coalesce is on and none of its modifications
//     is an add, whatever the other options, and the plan text says so.
func checkPlanInvariants(t *testing.T, seed uint64, opts PlanOptions, ca *compiledAction) {
	t.Helper()
	if ca.nSlots > MaxSlots {
		t.Fatalf("seed %d: %d slots", seed, ca.nSlots)
	}
	adds := false
	for _, c := range ca.action.Conds {
		for _, m := range c.Mods {
			adds = adds || m.Op == OpAssignAdd
		}
	}
	if want := opts.Coalesce && !adds; ca.coalesce != want || ca.info().Coalesced != want {
		t.Fatalf("seed %d opts %+v: coalesce = %v (listed %v), want %v (action adds: %v)",
			seed, opts, ca.coalesce, ca.info().Coalesced, want, adds)
	}
	loaded := map[int]bool{}
	for _, acc := range ca.entry.loads {
		loaded[acc.slot] = true
	}
	for _, f := range ca.entry.folds {
		loaded[f.slot] = true
	}
	for ci := range ca.conds {
		cp := &ca.conds[ci]
		if len(cp.hops) == 0 {
			t.Fatalf("seed %d cond %d: no hops", seed, ci)
		}
		for _, h := range cp.hops {
			for _, acc := range h.loads {
				loaded[acc.slot] = true
			}
			for _, f := range h.folds {
				loaded[f.slot] = true
			}
		}
		check := func(e Expr) {
			if e == nil {
				return
			}
			var walk func(Expr)
			walk = func(e Expr) {
				switch x := e.(type) {
				case AccessExpr:
					if !loaded[x.A.slot] {
						t.Fatalf("seed %d opts %+v cond %d: access %s (slot %d) never loaded",
							seed, opts, ci, x.A, x.A.slot)
					}
				case tempRef:
					if !loaded[x.slot] {
						t.Fatalf("seed %d cond %d: temp slot %d never computed", seed, ci, x.slot)
					}
				case Bin:
					walk(x.L)
					walk(x.R)
				case NotExpr:
					walk(x.X)
				}
			}
			walk(e)
		}
		check(cp.test)
		check(cp.preTest)
		for _, rhs := range cp.modRhs {
			check(rhs)
		}
		if opts.Merge {
			finalAt := cp.hops[len(cp.hops)-1].at
			gen := ca.action.Gen
			firstTarget := normalizeLoc(ca.action.Conds[ci].Mods[0].Target.At, gen)
			if locKey(finalAt) != locKey(firstTarget) {
				t.Fatalf("seed %d cond %d: eval hop at %s but first target at %s",
					seed, ci, finalAt, firstTarget)
			}
		}
		// Direct marks.
		last := len(cp.hops) - 1
		for hi, h := range cp.hops {
			for _, acc := range h.loads {
				if acc.Prop.Kind == VertexSetProp {
					t.Fatalf("seed %d cond %d hop %d: loads set-valued %s", seed, ci, hi, acc)
				}
			}
			locked := hi == last && (len(cp.mergedMods) != 1 || !strings.HasPrefix(cp.sync.String(), "atomic-"))
			if want := opts.Direct && !locked; h.direct != want {
				t.Fatalf("seed %d opts %+v cond %d hop %d/%d (sync %s, %d merged mods): direct = %v, want %v",
					seed, opts, ci, hi, last, cp.sync, len(cp.mergedMods), h.direct, want)
			}
		}
		for _, d := range ca.info().Conds[ci].Direct {
			if strings.HasPrefix(d, "mod@") {
				t.Fatalf("seed %d cond %d: tail group %s listed as direct", seed, ci, d)
			}
		}
		// Filter mark.
		if cp.filter {
			mod := ca.action.Conds[ci].Mods[0]
			switch {
			case !opts.Filter:
				t.Fatalf("seed %d opts %+v cond %d: filter marked with Filter off", seed, opts, ci)
			case cp.sync != syncAtomicMin && cp.sync != syncAtomicMax:
				t.Fatalf("seed %d cond %d: filter on a %s eval hop", seed, ci, cp.sync)
			case len(cp.mergedMods) != 1 || cp.mergedMods[0] != 0 || len(cp.tailGroups) != 0:
				t.Fatalf("seed %d cond %d: filter with merged mods %v and %d tail groups", seed, ci, cp.mergedMods, len(cp.tailGroups))
			case mod.Target.Prop.Kind != VertexWordProp:
				t.Fatalf("seed %d cond %d: filter on a %v target", seed, ci, mod.Target.Prop.Kind)
			}
			atEval := map[*Access]bool{}
			for _, acc := range cp.hops[last].loads {
				atEval[acc] = true
			}
			walkAccesses(cp.modRhs[0], func(a *Access) {
				if atEval[a] {
					t.Fatalf("seed %d cond %d: filtered offer %s reads %s, loaded at the eval hop", seed, ci, cp.modRhs[0], a)
				}
			})
			if got := ca.info().Conds[ci].Filter; got != cp.hops[last].at.String() {
				t.Fatalf("seed %d cond %d: filter listed at %q, eval hop at %s", seed, ci, got, cp.hops[last].at)
			}
		} else if f := ca.info().Conds[ci].Filter; f != "" {
			t.Fatalf("seed %d cond %d: unmarked condition lists filter %q", seed, ci, f)
		}
		// Chain indices.
		if nt := ca.nextOnTrue[ci]; nt != -1 && (nt <= ci || nt >= len(ca.conds)) {
			t.Fatalf("seed %d: nextOnTrue[%d]=%d", seed, ci, nt)
		}
		if nf := ca.nextOnFalse[ci]; nf != -1 && nf != ci+1 {
			t.Fatalf("seed %d: nextOnFalse[%d]=%d", seed, ci, nf)
		}
	}
}

// TestRandomPatternsExecute runs a sample of random patterns end to end on a
// small graph across two configurations and checks the runs terminate and
// both configurations perform the same number of generated items (execution
// determinism of the generator fan-out; modification outcomes may differ
// under racing conditions, so only structural counters are compared).
func TestRandomPatternsExecute(t *testing.T) {
	// Implemented in engine_prop_test.go to keep this file planner-only.
}
