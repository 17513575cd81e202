package pattern

import (
	"strings"
	"testing"
)

// buildSSSP constructs the paper's Fig. 2 SSSP pattern:
//
//	pattern SSSP {
//	  vertex-property(dist); edge-property(weight);
//	  relax(vertex v) {
//	    generator: e in out_edges;
//	    alias: d = dist[v] + weight[e];
//	    if (d < dist[trg(e)]) dist[trg(e)] = d;
//	  }
//	}
func buildSSSP() *Pattern {
	p := New("SSSP")
	dist := p.VertexProp("dist")
	weight := p.EdgeProp("weight")
	relax := p.Action("relax", OutEdges())
	d := Add(dist.At(V()), weight.At(E())) // the alias
	relax.If(Lt(d, dist.At(Trg()))).Set(dist.At(Trg()), d)
	return p
}

func compileOne(t *testing.T, p *Pattern, opts PlanOptions) *compiledAction {
	t.Helper()
	ca, err := compileAction(p.Actions[0], 0, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return ca
}

// TestSSSPPlanFig6 asserts the headline result of §IV-A/Fig. 6: the SSSP
// relax compiles to a single message whose payload is the precomputed
// subexpression dist[v]+weight[e] (one word), evaluated and applied with an
// atomic instruction at trg(e).
func TestSSSPPlanFig6(t *testing.T) {
	ca := compileOne(t, buildSSSP(), DefaultPlanOptions())
	pi := ca.info()
	if len(pi.Conds) != 1 {
		t.Fatalf("conds: %d", len(pi.Conds))
	}
	c := pi.Conds[0]
	if c.Messages != 1 {
		t.Errorf("messages = %d, want 1 (Fig. 6)\n%s", c.Messages, pi)
	}
	if c.PayloadWords != 1 {
		t.Errorf("payload = %d words, want 1 (folded dist[v]+weight[e])\n%s", c.PayloadWords, pi)
	}
	if c.Sync != "atomic-min" {
		t.Errorf("sync = %s, want atomic-min (§IV-B single-value case)\n%s", c.Sync, pi)
	}
	if len(c.Route) != 1 || c.Route[0] != "trg(e)" {
		t.Errorf("route = %v, want [trg(e)]", c.Route)
	}
}

// TestSSSPPlanNoFold shows the Fig. 6 payload optimization: without folding
// the message carries both raw values.
func TestSSSPPlanNoFold(t *testing.T) {
	ca := compileOne(t, buildSSSP(), PlanOptions{Merge: true, Fold: false})
	c := ca.info().Conds[0]
	if c.Messages != 1 {
		t.Errorf("messages = %d, want 1", c.Messages)
	}
	if c.PayloadWords != 2 {
		t.Errorf("payload = %d words, want 2 (dist[v] and weight[e] raw)", c.PayloadWords)
	}
	// Without folding the test/rhs are distinct expressions; the relax
	// shape is still detected structurally.
	if c.Sync != "atomic-min" {
		t.Errorf("sync = %s, want atomic-min", c.Sync)
	}
}

// threeLocRelax is a relax variant whose condition reads a third remote
// vertex (a penalty stored at pen[v]'s vertex), so the merged and unmerged
// plans differ in message count: merged evaluates at trg(e) after picking up
// the penalty (2 messages), unmerged gathers trg(e)'s distance first, then
// the penalty, evaluates there, and ships a separate modification message
// back (3 messages).
func threeLocRelax() *Pattern {
	p := New("SSSP3")
	dist := p.VertexProp("dist")
	pen := p.VertexProp("pen") // penalty value stored at a helper vertex
	via := p.VertexProp("via") // via[v]: helper vertex of v
	weight := p.EdgeProp("weight")
	relax := p.Action("relax", OutEdges())
	d := Add(Add(dist.At(V()), weight.At(E())), pen.AtVal(via.At(V())))
	relax.If(Lt(d, dist.At(Trg()))).Set(dist.At(Trg()), d)
	return p
}

func TestMergeOptimizationMessageCounts(t *testing.T) {
	merged := compileOne(t, threeLocRelax(), DefaultPlanOptions()).info().Conds[0]
	unmerged := compileOne(t, threeLocRelax(), PlanOptions{Merge: false, Fold: true}).info().Conds[0]
	if merged.Messages != 2 {
		t.Errorf("merged messages = %d, want 2 (penalty hop + merged eval at trg)\nroute: %v", merged.Messages, merged.Route)
	}
	if unmerged.Messages != 3 {
		t.Errorf("unmerged messages = %d, want 3 (gather trg, gather penalty+eval, modify trg)\nroute: %v", unmerged.Messages, unmerged.Route)
	}
	if merged.Sync != "atomic-min" {
		t.Errorf("merged sync = %s, want atomic-min", merged.Sync)
	}
	if last := merged.Route[len(merged.Route)-1]; last != "trg(e)" {
		t.Errorf("merged route must end at trg(e): %v", merged.Route)
	}
	if last := unmerged.Route[len(unmerged.Route)-1]; !strings.HasPrefix(last, "mod@") {
		t.Errorf("unmerged route must end with a modification message: %v", unmerged.Route)
	}
}

// fig5Pattern reconstructs the shape of the paper's Fig. 5 example: a
// dependency tree rooted at v with one short branch and one long pointer
// chain ending at the evaluation site. The naive depth-first traversal
// needs 8 messages (it backtracks to v between subtrees); direct sibling
// jumps need 7 — the counts the figure discusses.
func fig5Pattern() *Pattern {
	p := New("Fig5")
	// Branch: b[v] holds a helper vertex; its value bval[b[v]] is read.
	b := p.VertexProp("b")
	bval := p.VertexProp("bval")
	// Chain: c1[v] -> c2[...] -> ... -> c6, each holding the next vertex.
	c1 := p.VertexProp("c1")
	c2 := p.VertexProp("c2")
	c3 := p.VertexProp("c3")
	c4 := p.VertexProp("c4")
	c5 := p.VertexProp("c5")
	c6 := p.VertexProp("c6")
	out := p.VertexProp("out")
	a := p.Action("gather", None())
	x1 := c1.At(V())   // vertex 1, read at v
	x2 := c2.AtVal(x1) // read at vertex 1
	x3 := c3.AtVal(x2) // read at vertex 2
	x4 := c4.AtVal(x3) // read at vertex 3
	x5 := c5.AtVal(x4) // read at vertex 4
	x6 := c6.AtVal(x5) // read at vertex 5
	bv := bval.AtVal(b.At(V()))
	// Evaluation site: vertex 6 (the chain end), where out is modified.
	a.If(Gt(Add(bv, x6), C(0))).Set(out.AtVal(x6), Add(bv, x6))
	return p
}

func TestFig5NaiveVsDirect(t *testing.T) {
	direct := compileOne(t, fig5Pattern(), PlanOptions{Merge: true, Fold: true}).info().Conds[0]
	naive := compileOne(t, fig5Pattern(), PlanOptions{Merge: true, Fold: true, NaiveDFS: true}).info().Conds[0]
	// Direct: branch hop (bval at b[v]) then the 5-vertex chain, eval at
	// the chain end: 1 + 5 + 1(eval at out's vertex = x5's vertex) = 7.
	if direct.Messages != 7 {
		t.Errorf("direct messages = %d, want 7\nroute: %v", direct.Messages, direct.Route)
	}
	// Naive: same hops plus one backtrack to v between the branch subtree
	// and the chain subtree: 8.
	if naive.Messages != 8 {
		t.Errorf("naive messages = %d, want 8\nroute: %v", naive.Messages, naive.Route)
	}
}

// TestPointerJumpPlan: cc_jump's chg[chg[v]] is a two-hop gather whose
// evaluation returns to v (E11).
func TestPointerJumpPlan(t *testing.T) {
	p := New("CCJ")
	chg := p.VertexProp("chg")
	a := p.Action("cc_jump", None())
	inner := chg.At(V())
	outer := chg.AtVal(inner)
	a.If(And(Ge(outer, C(0)), Lt(outer, inner))).Set(chg.At(V()), outer)
	ca := compileOne(t, p, DefaultPlanOptions())
	c := ca.info().Conds[0]
	// Hop to chg[v]'s vertex, then back to v to evaluate and modify.
	if c.Messages != 2 {
		t.Errorf("messages = %d, want 2\nroute: %v", c.Messages, c.Route)
	}
	if c.Route[len(c.Route)-1] != "v" {
		t.Errorf("must evaluate back at v: %v", c.Route)
	}
	if c.Sync != "lock" {
		t.Errorf("sync = %s, want lock (multi-value condition)", c.Sync)
	}
}

func TestAccessDedup(t *testing.T) {
	p := New("D")
	x := p.VertexProp("x")
	a := p.Action("act", OutEdges())
	// dist[trg(e)] appears three times; one slot.
	a.If(Lt(x.At(Trg()), C(10))).Set(x.At(Trg()), Add(x.At(Trg()), C(1)))
	ca := compileOne(t, p, DefaultPlanOptions())
	if len(ca.accesses) != 1 {
		t.Fatalf("accesses = %d, want 1 (dedup)", len(ca.accesses))
	}
}

func TestDependencyDetection(t *testing.T) {
	// SSSP reads and writes dist → the mod fires the work hook.
	ca := compileOne(t, buildSSSP(), DefaultPlanOptions())
	if !ca.action.Conds[0].Mods[0].firesDependency {
		t.Error("SSSP relax must fire dependencies (§IV-C)")
	}
	// A pattern writing a property it never reads must not.
	p := New("W")
	x := p.VertexProp("x")
	y := p.VertexProp("y")
	a := p.Action("copy", OutEdges())
	a.If(Gt(x.At(V()), C(0))).Set(y.At(Trg()), x.At(V()))
	ca2 := compileOne(t, p, DefaultPlanOptions())
	if ca2.action.Conds[0].Mods[0].firesDependency {
		t.Error("write-only property must not fire dependencies")
	}
}

func TestElifChaining(t *testing.T) {
	p := New("E")
	x := p.VertexProp("x")
	a := p.Action("act", None())
	a.If(Gt(x.At(V()), C(10))).Set(x.At(V()), C(10))
	a.Elif(Gt(x.At(V()), C(5))).Set(x.At(V()), C(5))
	a.Else().Set(x.At(V()), C(0))
	a.If(Lt(x.At(V()), C(-1))).Set(x.At(V()), C(-1)) // independent if
	ca := compileOne(t, p, DefaultPlanOptions())
	// True from cond 0 skips the elif and else, landing on cond 3.
	if ca.nextOnTrue[0] != 3 {
		t.Errorf("nextOnTrue[0] = %d, want 3", ca.nextOnTrue[0])
	}
	if ca.nextOnFalse[0] != 1 || ca.nextOnFalse[1] != 2 {
		t.Errorf("false chain: %v", ca.nextOnFalse)
	}
	if ca.nextOnTrue[2] != 3 {
		t.Errorf("nextOnTrue[2] = %d, want 3", ca.nextOnTrue[2])
	}
	if ca.nextOnTrue[3] != -1 || ca.nextOnFalse[3] != -1 {
		t.Error("cond 3 must terminate the chain")
	}
}

func TestCompileErrors(t *testing.T) {
	// No conditions.
	p := New("X")
	p.VertexProp("x")
	p.Action("empty", None())
	if _, err := compileAction(p.Actions[0], 0, DefaultPlanOptions()); err == nil {
		t.Error("expected error for action without conditions")
	}
	// Condition without modifications.
	p2 := New("X2")
	x2 := p2.VertexProp("x")
	a2 := p2.Action("nomod", None())
	a2.If(Gt(x2.At(V()), C(0)))
	if _, err := compileAction(p2.Actions[0], 0, DefaultPlanOptions()); err == nil {
		t.Error("expected error for condition without modifications")
	}
	// Generated-edge access without an edge generator.
	p3 := New("X3")
	x3 := p3.VertexProp("x")
	a3 := p3.Action("badloc", Adj())
	a3.If(Gt(x3.At(Trg()), C(0))).Set(x3.At(Trg()), C(1))
	if _, err := compileAction(p3.Actions[0], 0, DefaultPlanOptions()); err == nil {
		t.Error("expected error for trg(e) under adj generator")
	}
	// Starting with an elif.
	p4 := New("X4")
	x4 := p4.VertexProp("x")
	a4 := p4.Action("elif", None())
	a4.Conds = append(a4.Conds, Cond{Test: Gt(x4.At(V()), C(0)), Elif: true, Mods: []Mod{}})
	if _, err := compileAction(p4.Actions[0], 0, DefaultPlanOptions()); err == nil {
		t.Error("expected error for leading elif")
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	p := New("P")
	x := p.VertexProp("x")
	w := p.EdgeProp("w")
	s := p.VertexSetProp("s")
	expectPanic("duplicate prop", func() { p.VertexProp("x") })
	expectPanic("edge prop at vertex", func() { w.At(V()) })
	expectPanic("vertex prop at edge", func() { x.At(E()) })
	expectPanic("AtVal non-access", func() { x.AtVal(C(3)) })
	expectPanic("set read as word", func() {
		a := p.Action("bad", None())
		a.If(Gt(s.At(V()), C(0))).Set(x.At(V()), C(1))
		compileAction(a, 0, DefaultPlanOptions())
	})
}

func TestGatherElisionAcrossConditions(t *testing.T) {
	// Two conditions reading the same remote value: the second condition
	// must not re-gather it (§IV-A elision).
	p := New("El")
	x := p.VertexProp("x")
	y := p.VertexProp("y")
	a := p.Action("act", OutEdges())
	a.If(Gt(x.At(Trg()), C(0))).Set(y.At(V()), x.At(Trg()))
	a.If(Gt(x.At(Trg()), C(5))).Set(y.At(V()), C(99))
	ca := compileOne(t, p, DefaultPlanOptions())
	// Cond 0: x[trg] is needed for the test but the mod target y[v] is at
	// v: hops = gather trg, eval at v = 2 messages.
	if got := ca.conds[0].messages(); got != 2 {
		t.Errorf("cond0 messages = %d, want 2\n%s", got, ca.info())
	}
	// Cond 1: x[trg] already gathered; eval at v where we already stand =
	// 1 hop (at v), 0 new gathers.
	if got := len(ca.conds[1].hops); got != 1 {
		t.Errorf("cond1 hops = %d, want 1 (elided gather)\n%s", got, ca.info())
	}
}

// buildCCSearch is CC's search action: a claim under the lock map, then a
// conflict record that is an atomic insert followed by a tail group.
func buildCCSearch() *Pattern {
	p := New("CC")
	pnt := p.VertexProp("pnt")
	conf := p.VertexSetProp("conf")
	search := p.Action("cc_search", Adj())
	pv, pu := pnt.At(V()), pnt.At(U())
	search.If(Eq(pu, C(NilWord))).Set(pu, pv)
	search.Elif(Ne(pu, pv)).Insert(conf.AtVal(pu), pv).Insert(conf.AtVal(pv), pu)
	return p
}

// TestDirectMarks pins the eligibility rule on the two shapes the random
// patterns never produce — a set-valued modification and a tail modification
// group: cc_search's claim is a multi-value condition under the lock map and
// stays a message; its conflict record is an atomic insert (direct) followed
// by a second insert at another vertex, a tail group, which is never direct.
func TestDirectMarks(t *testing.T) {
	build := buildCCSearch
	on := compileOne(t, build(), DefaultPlanOptions()).info()
	if got := on.Conds[0]; got.Sync != "lock" || len(got.Direct) != 0 {
		t.Errorf("claim: sync = %s, direct = %v; want lock and no direct hop\n%s", got.Sync, got.Direct, on)
	}
	got := on.Conds[1]
	if got.Sync != "atomic-insert" || len(got.Direct) != 1 || got.Direct[0] != got.Route[0] {
		t.Errorf("conflict record: sync = %s, direct = %v, route = %v; want the atomic-insert eval hop alone\n%s",
			got.Sync, got.Direct, got.Route, on)
	}
	if !strings.Contains(on.String(), "direct="+got.Route[0]) {
		t.Errorf("plan text does not show the direct hop:\n%s", on)
	}

	opts := DefaultPlanOptions()
	opts.Direct = false
	off := compileOne(t, build(), opts).info()
	for i, c := range off.Conds {
		if len(c.Direct) != 0 {
			t.Errorf("Direct off: cond %d marks %v", i, c.Direct)
		}
		if c.Messages != on.Conds[i].Messages {
			t.Errorf("cond %d: Messages %d with Direct off, %d with it on; the paper's count must not depend on it",
				i, c.Messages, on.Conds[i].Messages)
		}
	}
}

// TestFilterMarks pins the send-side filter's eligibility rule shape by shape:
// the relax shape and its max dual are marked at their eval hop; an
// accumulation, an insert, a lock-synchronized condition, a relaxation
// followed by a tail modification group, and a relaxation whose offer reads
// the target are not; and the paper's message count does not depend on it.
func TestFilterMarks(t *testing.T) {
	type build func(x, y *Prop, a *Action)
	shapes := []struct {
		name   string
		build  build
		sync   string
		filter string
	}{
		{"relax", func(x, _ *Prop, a *Action) {
			d := Add(x.At(V()), C(1))
			a.If(Lt(d, x.At(Trg()))).Set(x.At(Trg()), d)
		}, "atomic-min", "trg(e)"},
		{"set-min", func(x, _ *Prop, a *Action) { a.Do().SetMin(x.At(Trg()), x.At(V())) }, "atomic-min", "trg(e)"},
		{"widen", func(x, _ *Prop, a *Action) {
			a.If(Gt(x.At(V()), x.At(Trg()))).Set(x.At(Trg()), x.At(V()))
		}, "atomic-max", "trg(e)"},
		{"add", func(x, _ *Prop, a *Action) { a.Do().AddTo(x.At(Trg()), C(1)) }, "atomic-add", ""},
		{"two-values", func(x, y *Prop, a *Action) {
			a.If(Lt(x.At(V()), y.At(Trg()))).Set(x.At(Trg()), x.At(V()))
		}, "lock", ""},
		{"tail-group", func(x, y *Prop, a *Action) {
			d := Add(x.At(V()), C(1))
			a.If(Lt(d, x.At(Trg()))).Set(x.At(Trg()), d).Set(y.At(V()), C(1))
		}, "atomic-min", ""},
		{"offer-reads-target", func(x, _ *Prop, a *Action) {
			a.Do().SetMin(x.At(Trg()), Sub(x.At(Trg()), C(1)))
		}, "atomic-min", ""},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			mk := func() *Pattern {
				p := New("F")
				x, y := p.VertexProp("x"), p.VertexProp("y")
				sh.build(x, y, p.Action("act", OutEdges()))
				return p
			}
			on := compileOne(t, mk(), DefaultPlanOptions()).info()
			if got := on.Conds[0]; got.Sync != sh.sync || got.Filter != sh.filter {
				t.Errorf("sync = %s, filter = %q; want %s, %q\n%s", got.Sync, got.Filter, sh.sync, sh.filter, on)
			}
			want := "filter=-"
			if sh.filter != "" {
				want = "filter=" + sh.filter
			}
			if !strings.Contains(on.String(), want) {
				t.Errorf("plan text does not show %s:\n%s", want, on)
			}
			opts := DefaultPlanOptions()
			opts.Filter = false
			off := compileOne(t, mk(), opts).info()
			if off.Conds[0].Filter != "" || off.Conds[0].Messages != on.Conds[0].Messages {
				t.Errorf("Filter off: filter = %q, Messages %d (on: %d)", off.Conds[0].Filter, off.Conds[0].Messages, on.Conds[0].Messages)
			}
		})
	}
	// The library's set-valued shape: cc_search's conflict record is an atomic
	// insert with a tail group — direct-eligible, never filtered.
	if cc := compileOne(t, buildCCSearch(), DefaultPlanOptions()).info(); cc.Conds[0].Filter != "" || cc.Conds[1].Filter != "" {
		t.Errorf("cc_search marks a filter:\n%s", cc)
	}
}

// TestCoalesceMarks: an action is coalescible when every modification repeats
// harmlessly — assign, min, max, insert — and never when one of them adds;
// Coalesce off marks nothing; the plan text names the mark; and the paper's
// message count does not depend on it.
func TestCoalesceMarks(t *testing.T) {
	shapes := []struct {
		name      string
		build     func(x, y *Prop, s *Prop, a *Action)
		coalesced bool
	}{
		{"relax", func(x, _, _ *Prop, a *Action) {
			d := Add(x.At(V()), C(1))
			a.If(Lt(d, x.At(Trg()))).Set(x.At(Trg()), d)
		}, true},
		{"set-min", func(x, _, _ *Prop, a *Action) { a.Do().SetMin(x.At(Trg()), x.At(V())) }, true},
		{"set-max", func(x, _, _ *Prop, a *Action) { a.Do().SetMax(x.At(Trg()), x.At(V())) }, true},
		{"insert", func(x, _, s *Prop, a *Action) { a.Do().Insert(s.At(Trg()), Vtx(V())) }, true},
		{"lock-assign", func(x, y, _ *Prop, a *Action) {
			a.If(Lt(x.At(V()), y.At(Trg()))).Set(x.At(Trg()), x.At(V())).Set(y.At(V()), C(1))
		}, true},
		{"add", func(x, _, _ *Prop, a *Action) { a.Do().AddTo(x.At(Trg()), C(1)) }, false},
		{"min-then-add", func(x, y, _ *Prop, a *Action) {
			a.Do().SetMin(x.At(Trg()), x.At(V())).AddTo(y.At(V()), C(1))
		}, false},
		{"add-in-a-later-condition", func(x, y, _ *Prop, a *Action) {
			a.If(Lt(x.At(V()), C(5))).SetMin(x.At(Trg()), x.At(V()))
			a.Elif(Gt(x.At(V()), C(9))).AddTo(y.At(Trg()), C(1))
		}, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			mk := func() *Pattern {
				p := New("C")
				sh.build(p.VertexProp("x"), p.VertexProp("y"), p.VertexSetProp("s"), p.Action("act", OutEdges()))
				return p
			}
			on := compileOne(t, mk(), DefaultPlanOptions()).info()
			want := "rerun=each"
			if sh.coalesced {
				want = "rerun=coalesced"
			}
			if on.Coalesced != sh.coalesced || !strings.Contains(on.String(), "action act: "+want+"\n") {
				t.Errorf("coalesced = %v, want %v and %q in\n%s", on.Coalesced, sh.coalesced, want, on)
			}
			opts := DefaultPlanOptions()
			opts.Coalesce = false
			off := compileOne(t, mk(), opts).info()
			if off.Coalesced || !strings.Contains(off.String(), "rerun=each") {
				t.Errorf("Coalesce off still marks the action:\n%s", off)
			}
			for ci := range on.Conds {
				if off.Conds[ci].Messages != on.Conds[ci].Messages {
					t.Errorf("cond %d: Messages %d with Coalesce off, %d on", ci, off.Conds[ci].Messages, on.Conds[ci].Messages)
				}
			}
		})
	}
	// The library: CC's search (assign under the lock map, then two inserts)
	// is coalescible; its hook is the action itself.
	if cc := compileOne(t, buildCCSearch(), DefaultPlanOptions()).info(); !cc.Coalesced {
		t.Errorf("cc_search is not coalesced:\n%s", cc)
	}
}
