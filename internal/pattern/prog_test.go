package pattern

import (
	"math/rand/v2"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
)

// evalOracle is the engine's former per-item interpreter, a type-switch walk
// of the expression tree, kept as the reference compiled closures are checked
// against.
func evalOracle(m *patMsg, e Expr) Word {
	switch x := e.(type) {
	case Const:
		return x.X
	case VertexVal:
		return vertexWord(locVertexOracle(m, x.L))
	case AccessExpr:
		return m.Vals[x.A.slot]
	case tempRef:
		return m.Vals[x.slot]
	case NotExpr:
		if evalOracle(m, x.X) != 0 {
			return 0
		}
		return 1
	case Bin:
		l := evalOracle(m, x.L)
		rr := evalOracle(m, x.R)
		switch x.Op {
		case OpAdd:
			return l + rr
		case OpSub:
			return l - rr
		case OpMul:
			return l * rr
		case OpDiv:
			if rr == 0 {
				return 0
			}
			return l / rr
		case OpMod:
			if rr == 0 {
				return 0
			}
			return l % rr
		case OpMin:
			if l < rr {
				return l
			}
			return rr
		case OpMax:
			if l > rr {
				return l
			}
			return rr
		case OpLt:
			return b2w(l < rr)
		case OpLe:
			return b2w(l <= rr)
		case OpGt:
			return b2w(l > rr)
		case OpGe:
			return b2w(l >= rr)
		case OpEq:
			return b2w(l == rr)
		case OpNe:
			return b2w(l != rr)
		case OpAnd:
			return b2w(l != 0 && rr != 0)
		case OpOr:
			return b2w(l != 0 || rr != 0)
		}
	}
	panic("pattern: unevaluable expression")
}

func locVertexOracle(m *patMsg, l Loc) distgraph.Vertex {
	switch l.Kind {
	case LocV:
		return m.V
	case LocU:
		return m.U
	case LocTrg:
		return m.ET
	case LocSrc:
		return m.ES
	case LocAccess:
		return wordVertex(m.Vals[l.A.slot])
	case LocE:
		return m.edgeRef().GenVertex()
	}
	panic("pattern: unresolvable locality " + l.String())
}

const numBinOps = int(OpOr) + 1

// exprGen draws random planned expressions: every node kind, every operator,
// every locality kind, slots anywhere in the payload.
type exprGen struct {
	rng  *rand.Rand
	prop *Prop
}

func (g exprGen) slot() int { return g.rng.IntN(MaxSlots) }

func (g exprGen) leaf() Expr {
	switch g.rng.IntN(4) {
	case 0:
		return Const{X: randWord(g.rng)}
	case 1:
		l := Loc{Kind: LocKind(g.rng.IntN(int(LocAccess) + 1))}
		if l.Kind == LocAccess {
			l.A = &Access{Prop: g.prop, slot: g.slot()}
		}
		return VertexVal{L: l}
	case 2:
		return AccessExpr{A: &Access{Prop: g.prop, slot: g.slot()}}
	default:
		return tempRef{slot: g.slot()}
	}
}

func (g exprGen) expr(depth int) Expr {
	if depth == 0 || g.rng.IntN(4) == 0 {
		return g.leaf()
	}
	if g.rng.IntN(8) == 0 {
		return NotExpr{X: g.expr(depth - 1)}
	}
	return Bin{Op: BinOp(g.rng.IntN(numBinOps)), L: g.expr(depth - 1), R: g.expr(depth - 1)}
}

// randWord favours the values operators branch on: zero (div/mod by zero, the
// truth of && and ||), NIL, small words that collide, and words too large to
// be vertices.
func randWord(rng *rand.Rand) Word {
	switch rng.IntN(6) {
	case 0:
		return 0
	case 1:
		return NilWord
	case 2:
		return Word(rng.IntN(4))
	case 3:
		return 1<<32 + Word(rng.IntN(4))
	case 4:
		return -Word(rng.IntN(1000))
	default:
		return Word(rng.Uint64() >> 1)
	}
}

func randCursor(rng *rand.Rand) patMsg {
	vertex := func() distgraph.Vertex {
		if rng.IntN(5) == 0 {
			return distgraph.NilVertex
		}
		return distgraph.Vertex(rng.Uint32())
	}
	m := patMsg{V: vertex(), U: vertex(), ES: vertex(), ET: vertex(), EIn: rng.IntN(2) == 0}
	for i := range m.Vals {
		m.Vals[i] = randWord(rng)
	}
	return m
}

// TestCompiledExprMatchesOracle: a compiled closure computes what the
// tree-walking interpreter computed, on random trees over random cursors and,
// exhaustively, for every operator in both compiled shapes (slot⊕slot as one
// closure, anything else as a closure over its operands' closures) on every
// pair of the operand values operators branch on.
func TestCompiledExprMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 1))
	g := exprGen{rng: rng, prop: New("P").VertexProp("p")}
	check := func(e Expr, m *patMsg) {
		t.Helper()
		if got, want := compileExpr(e)(m), evalOracle(m, e); got != want {
			t.Fatalf("%s = %d compiled, %d interpreted, on %+v", e, got, want, *m)
		}
	}
	for i := 0; i < 3000; i++ {
		e := g.expr(4)
		for j := 0; j < 8; j++ {
			m := randCursor(rng)
			check(e, &m)
		}
	}
	edge := []Word{0, 1, -1, 2, 7, -7, Inf, 1<<32 + 3, -1 << 63, 1<<63 - 1}
	a, b := &Access{Prop: g.prop, slot: 3}, &Access{Prop: g.prop, slot: 9}
	for op := BinOp(0); int(op) < numBinOps; op++ {
		for _, l := range edge {
			for _, r := range edge {
				var m patMsg
				m.Vals[a.slot], m.Vals[b.slot] = l, r
				check(Bin{Op: op, L: AccessExpr{A: a}, R: tempRef{slot: b.slot}}, &m)
				check(Bin{Op: op, L: AccessExpr{A: a}, R: Const{X: r}}, &m)
				check(Bin{Op: op, L: Const{X: l}, R: NotExpr{X: NotExpr{X: AccessExpr{A: b}}}}, &m)
			}
		}
	}
	// A NIL (or oversized) word used as a vertex value reads back as NIL.
	for _, w := range []Word{NilWord, -5, 1<<32 + 3, Inf, Word(distgraph.NilVertex)} {
		var m patMsg
		m.Vals[a.slot] = w
		e := VertexVal{L: Loc{Kind: LocAccess, A: a}}
		check(e, &m)
		if got := compileExpr(e)(&m); got != NilWord {
			t.Errorf("vertex value of word %d = %d, want NIL", w, got)
		}
	}
}

// TestSiteMatchesDistribution: the engine's one-call site resolver is the
// distribution's (Owner, Local) pair for every vertex, on each branch of
// newSiteFn.
func TestSiteMatchesDistribution(t *testing.T) {
	cases := []struct {
		name string
		dist distgraph.Distribution
	}{
		{"block/pow2", distgraph.NewBlockDist(64, 4)},
		{"block/pow2-one-rank", distgraph.NewBlockDist(32, 1)},
		{"block/non-pow2", distgraph.NewBlockDist(60, 4)},
		{"block/pow2-ragged", distgraph.NewBlockDist(61, 4)},
		{"block/non-pow2-ragged", distgraph.NewBlockDist(58, 4)},
		{"block/n<ranks", distgraph.NewBlockDist(3, 8)},
		{"cyclic", distgraph.NewCyclicDist(61, 4)},
		{"cyclic/n<ranks", distgraph.NewCyclicDist(3, 8)},
		{"hash", distgraph.NewHashDist(61, 4, 7)},
	}
	for _, tc := range cases {
		resolve := newSiteFn(tc.dist)
		for v := 0; v < tc.dist.NumVertices(); v++ {
			got := resolve(distgraph.Vertex(v))
			if want := (site{tc.dist.Owner(distgraph.Vertex(v)), tc.dist.Local(distgraph.Vertex(v))}); got != want {
				t.Errorf("%s: site(%d) = %+v, distribution says %+v", tc.name, v, got, want)
			}
		}
	}
}

// TestOversizedWordIsNoVertex: a word of 2³² or more used as a vertex is NIL —
// the condition is false — and does not alias the vertex its low 32 bits
// name.
func TestOversizedWordIsNoVertex(t *testing.T) {
	const n = 8
	u := am.New(1)
	dist := distgraph.NewBlockDist(n, 1)
	g := distgraph.Build(dist, gen.Path(n, gen.Weights{}, 0), distgraph.Options{})
	eng := NewEngine(u, g, pmap.NewLockMap(dist, 1), DefaultPlanOptions())

	p := New("P")
	x, ptr := p.VertexProp("x"), p.VertexProp("ptr")
	target := x.AtVal(ptr.At(V()))
	// if (1 < x[ptr[v]]) x[ptr[v]] = 1
	p.Action("poke", None()).If(Lt(C(1), target)).Set(target, C(1))

	xm, pm := pmap.NewVertexWord(dist, 100), pmap.NewVertexWord(dist, 1<<32+3)
	bound, err := eng.Bind(p, Bindings{"x": xm, "ptr": pm})
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	poke := bound.Action("poke")
	if err := u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) { poke.Invoke(r, 0) })
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for v, got := range xm.Gather() {
		if got != 100 {
			t.Errorf("x[%d] = %d, want 100: ptr[0] = 2^32+3 names no vertex", v, got)
		}
	}
	if f := poke.Stats.TestsFalse.Load(); f != 1 {
		t.Errorf("TestsFalse = %d, want 1", f)
	}
}

// itemCase is one single-action pattern of the item-path tests and benchmark.
// typed: the action's item lowers to the typed form, so an entry runs as one
// loop over it.
type itemCase struct {
	name    string
	pattern func() *Pattern
	typed   bool
}

// buildBFS is the relax shape with an implicit unit weight.
func buildBFS() *Pattern {
	p := New("BFS")
	lvl := p.VertexProp("lvl")
	d := Add(lvl.At(V()), C(1))
	p.Action("visit", OutEdges()).If(Lt(d, lvl.At(Trg()))).Set(lvl.At(Trg()), d)
	return p
}

// buildBFSTree also records the parent: two modifications, so the eval hop
// synchronizes through the lock map.
func buildBFSTree() *Pattern {
	p := New("BFSTree")
	lvl, parent := p.VertexProp("lvl"), p.VertexProp("parent")
	d := Add(lvl.At(V()), C(1))
	p.Action("visit", OutEdges()).If(Lt(d, lvl.At(Trg()))).
		Set(lvl.At(Trg()), d).Set(parent.At(Trg()), Vtx(V()))
	return p
}

// buildSpread is PageRank's push: an atomic add of an entry-local word.
func buildSpread() *Pattern {
	p := New("PageRank-push")
	contrib, next := p.VertexProp("contrib"), p.VertexProp("next")
	p.Action("spread", OutEdges()).Do().AddTo(next.At(Trg()), contrib.At(V()))
	return p
}

var itemCases = []itemCase{
	{"sssp", buildSSSP, true}, {"bfs", buildBFS, true}, {"bfs-tree", buildBFSTree, false}, {"spread", buildSpread, true},
}

// itemEnv is RMAT-12 on one rank with no handler threads and tc's action
// bound with no work hook: Invoke runs every item to completion, inline. The
// first vertex-word property is the one the action relaxes.
type itemEnv struct {
	u      *am.Universe
	g      *distgraph.Graph
	key    *pmap.VertexWord
	action *BoundAction
}

func newItemEnv(tb testing.TB, tc itemCase) itemEnv {
	tb.Helper()
	n, edges := gen.RMAT(12, 8, gen.Weights{Min: 1, Max: 100}, 18)
	u := am.New(1)
	dist := distgraph.NewBlockDist(n, 1)
	g := distgraph.Build(dist, edges, distgraph.Options{})
	eng := NewEngine(u, g, pmap.NewLockMap(dist, 1), DefaultPlanOptions())
	p := tc.pattern()
	env := itemEnv{u: u, g: g}
	binds := Bindings{}
	for _, pr := range p.Props {
		if pr.Kind == EdgeWordProp {
			binds[pr.Name] = pmap.WeightMap(g)
			continue
		}
		m := pmap.NewVertexWord(dist, Inf)
		if env.key == nil {
			env.key = m
		}
		binds[pr.Name] = m
	}
	bound, err := eng.Bind(p, binds)
	if err != nil {
		tb.Fatalf("bind %s: %v", tc.name, err)
	}
	env.action = bound.Action(p.Actions[0].Name)
	return env
}

// TestHotPathDoesNotAllocate: running an action's items allocates nothing —
// the cursor comes from the pool, the typed item and the steps' closures are
// built at Bind — whether an entry runs through the typed loop (SSSP, BFS,
// PageRank's spread; the test checks which) or item by item (the BFS tree's
// lock hop). Measured at the highest-degree vertex, inside an epoch body,
// and again in a second epoch with a write to the map before each Invoke, so
// that every run forgets its bound table (filter.go) first.
func TestHotPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, tc := range itemCases {
		env := newItemEnv(t, tc)
		if typed := env.action.prog.relax != nil; typed != tc.typed {
			t.Fatalf("%s: typed loop %v, want %v", tc.name, typed, tc.typed)
		}
		lg := env.g.Local(0)
		hub, deg := distgraph.Vertex(0), uint32(0)
		for li := 0; li < lg.NumLocal(); li++ {
			if d := lg.OutIndex[li+1] - lg.OutIndex[li]; d > deg {
				hub, deg = distgraph.Vertex(li), d
			}
		}
		var allocs [2]float64
		if err := env.u.Run(func(r *am.Rank) {
			env.key.Set(0, hub, 0)
			r.Epoch(func(*am.Epoch) {
				allocs[0] = testing.AllocsPerRun(100, func() { env.action.Invoke(r, hub) })
			})
			r.Epoch(func(*am.Epoch) {
				allocs[1] = testing.AllocsPerRun(100, func() {
					env.key.Set(0, hub, 0)
					env.action.Invoke(r, hub)
				})
			})
		}); err != nil {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if items := env.action.Stats.Items.Load(); items != 202*int64(deg) {
			t.Errorf("%s: %d items, want 202 runs of %d", tc.name, items, deg)
		}
		for i, a := range allocs {
			if a != 0 {
				t.Errorf("%s, epoch %d: %v allocs per Invoke of %d items, want 0", tc.name, i, a, deg)
			}
		}
	}
}

// BenchmarkPatternItem prices one generated item: each op is one Invoke, at
// the vertices of RMAT-12 in turn. Every sweep starts from the same pseudo-
// random keys, so it repeats the same mix of improving and failing
// relaxations.
func BenchmarkPatternItem(b *testing.B) {
	for _, tc := range itemCases[:2] { // sssp and bfs; the others are the allocation test's
		b.Run(tc.name, func(b *testing.B) {
			env := newItemEnv(b, tc)
			n := env.g.NumVertices()
			rng := rand.New(rand.NewPCG(18, 2))
			keys := make([]int64, n)
			for v := range keys {
				keys[v] = int64(rng.IntN(1000))
			}
			if err := env.u.Run(func(r *am.Rank) {
				r.Epoch(func(*am.Epoch) {
					items0 := env.action.Stats.Items.Load()
					v := 0
					for b.Loop() {
						if v == 0 {
							for u, k := range keys {
								env.key.SetAt(0, u, k)
							}
						}
						env.action.Invoke(r, distgraph.Vertex(v))
						if v++; v == n {
							v = 0
						}
					}
					items := env.action.Stats.Items.Load() - items0
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(items), "ns/item")
				})
			}); err != nil {
				b.Fatalf("Run: %v", err)
			}
		})
	}
}
