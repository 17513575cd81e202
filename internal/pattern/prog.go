package pattern

import (
	"math/bits"

	"declpat/internal/distgraph"
	"declpat/internal/pmap"
)

// Bound programs (DESIGN.md, "Bound programs").
//
// compileAction decides what an action does: which hops, what each carries,
// how each synchronizes. None of that changes once the pattern is bound, and
// neither does the storage a property names. Bind therefore interprets the
// plan exactly once, here, into a program the engine runs per item: every
// load and modification holds its property map, every expression is a closure
// over payload slot indices, and every plan decision is a field of the step
// it governs. What stays dynamic is what differs from item to item or is
// installed after Bind: the cursor, where a hop's destination lives, the
// filter table, the work hook and its pending words.

// program is one bound action, ready to run.
type program struct {
	gen    GenKind
	genSet *pmap.VertexSet // the set a GenPropSet generator iterates
	// blank is the cursor a mailed hop is unpacked into: the bindings the
	// generator fixes, every word else zero.
	blank patMsg
	// entry holds the entry-local loads and folds, executed at owner(v) for
	// every generated item (only loads and folds are set).
	entry progStep
	conds []progCond
	// loop marks the relax shape (loopShape): an entry runs its items as one
	// loop (engine.go, loop).
	loop bool
}

// progCond is one condition's plan. steps lists the condition's hops in plan
// order — gather hops, then the eval hop at steps[eval] — followed by its tail
// modification groups; a message's Hop field indexes it, and len(steps)
// addresses "condition complete".
type progCond struct {
	steps []progStep
	eval  int
	// nextTrue/nextFalse are the next condition to run (or -1) once this one
	// held or failed: the if/elif/else chaining.
	nextTrue, nextFalse int
}

// evalHop returns the condition's eval hop.
func (pc *progCond) evalHop() *progStep { return &pc.steps[pc.eval] }

type stepKind uint8

const (
	stepGather stepKind = iota // load words into the payload, fold, move on
	stepAtomic                 // eval hop that is one atomic instruction (§IV-B)
	stepLock                   // eval hop under the lock map: loads, test, merged modifications
	stepTail                   // tail modification group, under the lock map
)

// progStep is one position of a condition's plan, executed at the vertex at
// resolves to.
type progStep struct {
	kind stepKind
	at   progLoc
	// direct: a co-resident sender executes the step in place instead of
	// mailing it (markDirect).
	direct bool
	// carry is the step's pack table: the cursor words a mailed hop carries,
	// one per message lane (hop.go).
	carry []uint8
	loads []progLoad
	folds []progFold

	// Eval hop only. pre is the early-exit test, evaluated where the hop
	// would be mailed from; test the remaining test, evaluated at the hop
	// (nil: none). sync names a stepAtomic's instruction. filter is the
	// send-side filter of the hop's map, nil unless the hop is eligible
	// (markFilter); whether it is on is the filter's to say (bindFilters).
	pre, test evalFn
	sync      atomicKind
	filter    *filter

	// mods are the modifications applied here: the one a stepAtomic performs,
	// the merged group of a stepLock, a stepTail's group.
	mods []progMod
}

// progLoad reads one property word into a payload slot. Every load of a step
// is at the step's own vertex: a vertex word is that vertex's, an edge word is
// the generated edge's, stored at its generation vertex. Exactly one of vw
// and ew is set.
type progLoad struct {
	slot int
	vw   *pmap.VertexWord
	ew   *pmap.EdgeWord
}

// progFold computes a folded temporary into its payload slot.
type progFold struct {
	slot int
	fn   evalFn
}

// progMod is one modification statement with its target's storage (exactly
// one of vw, ew and vs is set).
type progMod struct {
	op  ModOp
	rhs evalFn
	vw  *pmap.VertexWord
	ew  *pmap.EdgeWord
	vs  *pmap.VertexSet
	// vsLocked: vs is synchronized by the engine's own lock map, which a
	// stepLock or stepTail already holds for the vertex — re-locking the same
	// non-reentrant lock would self-deadlock.
	vsLocked bool
	// fires: the action reads the modified property, so a change runs the
	// work hook at the vertex (§IV-C).
	fires bool
}

// progLoc is a normalized locality with its payload slot resolved.
type progLoc struct {
	kind LocKind
	slot int // LocAccess: the slot holding the vertex
}

func compileLoc(l Loc) progLoc {
	pl := progLoc{kind: l.Kind}
	if l.Kind == LocAccess {
		pl.slot = l.A.slot
	}
	return pl
}

// vertex resolves the locality in the context of m; NilVertex for a NIL
// pointer (or a word that is no vertex id) in the chain.
func (l progLoc) vertex(m *patMsg) distgraph.Vertex {
	switch l.kind {
	case LocV:
		return m.V
	case LocU:
		return m.U
	case LocTrg:
		return m.ET
	case LocSrc:
		return m.ES
	case LocAccess:
		return wordVertex(m.Vals[l.slot])
	default: // LocE
		// The generated edge's locality is its generation vertex (Def. 1).
		return m.edgeRef().GenVertex()
	}
}

// compileProgram resolves ca's plan against the bound storage. lm is the
// engine's lock map.
func compileProgram(ca *compiledAction, binds map[*Prop]binding, lm *pmap.LockMap) *program {
	p := &program{gen: ca.action.Gen.Kind}
	p.blank = patMsg{U: distgraph.NilVertex, EIn: p.gen == GenInEdges}
	if p.gen == GenPropSet {
		p.genSet = binds[ca.action.Gen.Set].vs
	}
	gather := func(h *hop) progStep {
		st := progStep{kind: stepGather, at: compileLoc(h.at), direct: h.direct}
		for _, acc := range h.loads {
			bd := binds[acc.Prop]
			if bd.vw == nil && bd.ew == nil {
				panic("pattern: unreadable property " + acc.Prop.Name)
			}
			st.loads = append(st.loads, progLoad{slot: acc.slot, vw: bd.vw, ew: bd.ew})
		}
		for _, f := range h.folds {
			st.folds = append(st.folds, progFold{slot: f.slot, fn: compileExpr(f.expr)})
		}
		return st
	}
	p.entry = gather(&ca.entry)
	p.conds = make([]progCond, len(ca.conds))
	for ci := range ca.conds {
		cp := &ca.conds[ci]
		mods := func(mis []int) []progMod {
			out := make([]progMod, len(mis))
			for i, mi := range mis {
				mod := &cp.cond.Mods[mi]
				bd := binds[mod.Target.Prop]
				out[i] = progMod{op: mod.Op, rhs: compileExpr(cp.modRhs[mi]),
					vw: bd.vw, ew: bd.ew, vs: bd.vs,
					vsLocked: bd.vs != nil && bd.vs.Locks() == lm,
					fires:    mod.firesDependency}
			}
			return out
		}
		pc := progCond{eval: len(cp.hops) - 1, nextTrue: ca.nextOnTrue[ci], nextFalse: ca.nextOnFalse[ci]}
		for hi := range cp.hops {
			pc.steps = append(pc.steps, gather(&cp.hops[hi]))
		}
		ev := pc.evalHop()
		ev.kind, ev.sync = stepLock, cp.sync
		if cp.sync != syncLock {
			ev.kind = stepAtomic
		}
		ev.mods = mods(cp.mergedMods)
		if cp.preTest != nil {
			ev.pre = compileExpr(cp.preTest)
		}
		if cp.test != nil {
			ev.test = compileExpr(cp.test)
		}
		for _, g := range cp.tailGroups {
			pc.steps = append(pc.steps, progStep{kind: stepTail, at: compileLoc(g.at), mods: mods(g.mods)})
		}
		for hi := range pc.steps {
			pc.steps[hi].carry = lanes(cp.carry[hi])
		}
		p.conds[ci] = pc
	}
	p.loop = p.loopShape() && !ca.entryReadsUnwritten()
	return p
}

// loopShape reports whether the program is §IV-B's relax shape: one condition
// whose only step is an atomic eval hop at the generated neighbour — trg(e)
// of an out-edge, src(e) of an in-edge, or the generated vertex u — behind at
// most an early-exit test.
func (p *program) loopShape() bool {
	if len(p.conds) != 1 || len(p.conds[0].steps) != 1 {
		return false
	}
	st := &p.conds[0].steps[0]
	if st.kind != stepAtomic {
		return false
	}
	switch p.gen {
	case GenOutEdges:
		return st.at.kind == LocTrg
	case GenInEdges:
		return st.at.kind == LocSrc
	case GenAdj, GenPropSet:
		return st.at.kind == LocU
	}
	return false
}

// entryReadsUnwritten reports whether an item of the one-condition action
// reads a payload slot — in an entry fold, the early-exit test or the eval
// hop — that the entry gather has not written before the read. Such an item
// relies on item's payload clear, which the loop does without; no bundled
// action and no random draw reads one.
func (ca *compiledAction) entryReadsUnwritten() bool {
	gen := ca.action.Gen.Kind
	var reads, writes liveSet
	for _, acc := range ca.entry.loads {
		writes |= slotBit(acc.slot)
	}
	for _, f := range ca.entry.folds {
		reads |= exprBits(f.expr, gen) &^ writes
		writes |= slotBit(f.slot)
	}
	for _, u := range ca.conds[0].uses(gen) {
		reads |= (u.reads | u.pre) &^ writes
	}
	return reads&slotBits != 0
}

// gather performs the step's loads, then its folds, at the vertex resolved to
// at.
func (st *progStep) gather(m *patMsg, at site) {
	for i := range st.loads {
		ld := &st.loads[i]
		if ld.vw != nil {
			m.Vals[ld.slot] = ld.vw.GetAt(at.rank, at.li)
		} else {
			m.Vals[ld.slot] = ld.ew.Get(at.rank, m.edgeRef())
		}
	}
	for i := range st.folds {
		f := &st.folds[i]
		m.Vals[f.slot] = f.fn(m)
	}
}

// atomic performs a stepAtomic's instruction (§IV-B) on dest's value in its
// owner's shard and reports whether the value changed.
func (st *progStep) atomic(m *patMsg, dest distgraph.Vertex, at site) bool {
	mod := &st.mods[0]
	rhs := mod.rhs(m)
	switch st.sync {
	case syncAtomicMin:
		return mod.vw.MinAt(at.rank, at.li, rhs)
	case syncAtomicMax:
		return mod.vw.MaxAt(at.rank, at.li, rhs)
	case syncAtomicAdd:
		mod.vw.AddAt(at.rank, at.li, rhs)
		return rhs != 0
	default: // syncAtomicInsert
		return mod.vs.Insert(at.rank, dest, wordVertex(rhs))
	}
}

// apply performs the modification at dest (the caller holds dest's lock, on
// dest's owner) and reports whether the stored value changed.
func (mod *progMod) apply(m *patMsg, dest distgraph.Vertex, at site) bool {
	rhs := mod.rhs(m)
	switch {
	case mod.vw != nil:
		old := mod.vw.GetAt(at.rank, at.li)
		nv := modValue(mod.op, old, rhs)
		if nv == old {
			return false
		}
		mod.vw.SetAt(at.rank, at.li, nv)
		return true
	case mod.ew != nil:
		old := mod.ew.Get(at.rank, m.edgeRef())
		nv := modValue(mod.op, old, rhs)
		if nv == old {
			return false
		}
		mod.ew.Set(at.rank, m.edgeRef(), nv)
		return true
	case mod.vsLocked:
		return mod.vs.InsertLocked(at.rank, dest, wordVertex(rhs))
	default:
		return mod.vs.Insert(at.rank, dest, wordVertex(rhs))
	}
}

func modValue(op ModOp, old, rhs Word) Word {
	switch op {
	case OpAssign:
		return rhs
	case OpAssignMin:
		return min(old, rhs)
	case OpAssignMax:
		return max(old, rhs)
	case OpAssignAdd:
		return old + rhs
	}
	panic("pattern: bad mod op")
}

// evalFn is a compiled expression over an item's generator bindings and
// payload slots.
type evalFn func(m *patMsg) Word

// compileExpr turns a planned expression (accesses canonicalized, folds
// rewritten to tempRefs) into a closure.
func compileExpr(e Expr) evalFn {
	if s, ok := exprSlot(e); ok {
		return func(m *patMsg) Word { return m.Vals[s] }
	}
	switch x := e.(type) {
	case Const:
		k := x.X
		return func(*patMsg) Word { return k }
	case VertexVal:
		l := compileLoc(x.L)
		return func(m *patMsg) Word { return vertexWord(l.vertex(m)) }
	case NotExpr:
		in := compileExpr(x.X)
		return func(m *patMsg) Word { return b2w(in(m) == 0) }
	case Bin:
		ls, lok := exprSlot(x.L)
		rs, rok := exprSlot(x.R)
		if lok && rok {
			return compileBin(x.Op, nil, nil, ls, rs, true)
		}
		return compileBin(x.Op, compileExpr(x.L), compileExpr(x.R), 0, 0, false)
	}
	panic("pattern: unevaluable expression")
}

// exprSlot reports the payload slot e names, if e is a plain slot read.
func exprSlot(e Expr) (int, bool) {
	switch x := e.(type) {
	case AccessExpr:
		return x.A.slot, true
	case tempRef:
		return x.slot, true
	}
	return 0, false
}

// compileBin builds l op r. When both operands are payload slots (slots; a
// and b) — the shape of Fig. 6's dist[v]+weight[e] and of d < dist[trg(e)] —
// the whole operation is one closure.
func compileBin(op BinOp, l, r evalFn, a, b int, slots bool) evalFn {
	switch op {
	case OpAdd:
		if slots {
			return func(m *patMsg) Word { return m.Vals[a] + m.Vals[b] }
		}
		return func(m *patMsg) Word { return l(m) + r(m) }
	case OpSub:
		if slots {
			return func(m *patMsg) Word { return m.Vals[a] - m.Vals[b] }
		}
		return func(m *patMsg) Word { return l(m) - r(m) }
	case OpMul:
		if slots {
			return func(m *patMsg) Word { return m.Vals[a] * m.Vals[b] }
		}
		return func(m *patMsg) Word { return l(m) * r(m) }
	case OpDiv:
		if slots {
			return func(m *patMsg) Word { return divWord(m.Vals[a], m.Vals[b]) }
		}
		return func(m *patMsg) Word { return divWord(l(m), r(m)) }
	case OpMod:
		if slots {
			return func(m *patMsg) Word { return modWord(m.Vals[a], m.Vals[b]) }
		}
		return func(m *patMsg) Word { return modWord(l(m), r(m)) }
	case OpMin:
		if slots {
			return func(m *patMsg) Word { return min(m.Vals[a], m.Vals[b]) }
		}
		return func(m *patMsg) Word { return min(l(m), r(m)) }
	case OpMax:
		if slots {
			return func(m *patMsg) Word { return max(m.Vals[a], m.Vals[b]) }
		}
		return func(m *patMsg) Word { return max(l(m), r(m)) }
	case OpLt:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] < m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) < r(m)) }
	case OpLe:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] <= m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) <= r(m)) }
	case OpGt:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] > m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) > r(m)) }
	case OpGe:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] >= m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) >= r(m)) }
	case OpEq:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] == m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) == r(m)) }
	case OpNe:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] != m.Vals[b]) }
		}
		return func(m *patMsg) Word { return b2w(l(m) != r(m)) }
	case OpAnd:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] != 0 && m.Vals[b] != 0) }
		}
		return func(m *patMsg) Word { return b2w(l(m) != 0 && r(m) != 0) }
	case OpOr:
		if slots {
			return func(m *patMsg) Word { return b2w(m.Vals[a] != 0 || m.Vals[b] != 0) }
		}
		return func(m *patMsg) Word { return b2w(l(m) != 0 || r(m) != 0) }
	}
	panic("pattern: unknown operator")
}

// divWord and modWord keep actions total: division and modulo by zero yield 0.
func divWord(l, r Word) Word {
	if r == 0 {
		return 0
	}
	return l / r
}

func modWord(l, r Word) Word {
	if r == 0 {
		return 0
	}
	return l % r
}

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// siteFn resolves a vertex to the rank that owns it and its index in that
// rank's shards.
type siteFn func(v distgraph.Vertex) site

// newSiteFn picks the cheapest resolver the concrete distribution allows: a
// shift and a mask for blocks of a power of two, one division for the other
// arithmetic layouts, and the interface's two calls for anything else. The
// choice stays in the engine: Distribution is the exported contract other
// implementations satisfy, and it does not grow a method for one caller.
func newSiteFn(d distgraph.Distribution) siteFn {
	switch d := d.(type) {
	case distgraph.BlockDist:
		block := uint32(d.BlockSize())
		if bits.OnesCount32(block) == 1 {
			shift, mask := bits.TrailingZeros32(block), block-1
			return func(v distgraph.Vertex) site { return site{int(uint32(v) >> shift), int(uint32(v) & mask)} }
		}
		return func(v distgraph.Vertex) site { return site{int(uint32(v) / block), int(uint32(v) % block)} }
	case distgraph.CyclicDist:
		ranks := uint32(d.Ranks())
		return func(v distgraph.Vertex) site { return site{int(uint32(v) % ranks), int(uint32(v) / ranks)} }
	}
	return func(v distgraph.Vertex) site { return site{d.Owner(v), d.Local(v)} }
}
