package pattern

import (
	"fmt"
	"maps"
	"math/bits"

	"declpat/internal/distgraph"
)

// Hop messages (DESIGN.md, "Bound programs" and "The slot argument").
//
// The cursor (patMsg) holds everything an item has bound or gathered. A hop
// that travels needs only part of it: the words some later step reads before
// any step writes them. Bind computes that carried set for every step once,
// from the plan, and the step packs exactly those words behind its
// destination. The receiver rebuilds a cursor from them: the step's own
// locality comes back from Dest, the generator's fixed bindings from the
// action, and every other word reads zero — which is what it read at the
// sender on the path the item took, since a condition only reuses a word that
// every path into it wrote (compileAction).

// hopWords is the number of words a hop message carries besides its
// destination: the most any step of a pattern in this module carries under
// any planner options (CC's search with Merge off; BFS and SSSP carry one).
// A step that would carry more fails to bind.
const hopWords = 4

// hopMsg is the engine's single active-message type. Dest is the vertex the
// step runs at, from which the destination rank is computed (object-based
// addressing, §IV-D); W holds the step's carried words in the order of its
// pack table (progStep.carry), zero beyond them.
type hopMsg struct {
	Action int32
	Cond   int16
	Hop    int16 // step index within Cond, or hopEntry / hopFire
	Dest   distgraph.Vertex
	W      [hopWords]Word
}

// Negative hopMsg.Hop values address something other than a plan step. Both
// carry only Action and Dest.
const (
	// hopEntry runs the generator at Dest.
	hopEntry int16 = -1
	// hopFire runs the work hook at owner(Dest): a co-resident rank applied
	// a modification to Dest in place, the value changed, and the action
	// reads the modified property (§IV-C). The hook still runs on the owning
	// rank, inside the epoch, covered by the same termination accounting as
	// any other message. A coalesced rerun hook (rerun.go) needs no owner
	// thread and is never sent as one.
	hopFire int16 = -2
)

// checkHop reports whether m, delivered to rank, addresses a step of the
// bound program: an action, and a condition and step of it or an entry or
// work-hook firing, at a vertex of the graph — one that rank owns, for an entry
// or a firing. For an entry or a firing it returns the site it resolved.
func (e *Engine) checkHop(rank int, m *hopMsg) (site, error) {
	var at site
	ok := m.Action >= 0 && int(m.Action) < len(e.actions) && int(m.Dest) < e.nv
	if ok {
		switch m.Hop {
		case hopEntry, hopFire:
			if ok = m.Cond == 0; ok {
				if at = e.site(m.Dest); at.rank != rank {
					return at, fmt.Errorf("pattern: hop message for a vertex this rank does not own: action %d, cond %d, hop %d (dest %d on rank %d; owner %d)",
						m.Action, m.Cond, m.Hop, m.Dest, rank, at.rank)
				}
			}
		default:
			conds := e.actions[m.Action].prog.conds
			ok = m.Cond >= 0 && int(m.Cond) < len(conds) && m.Hop >= 0 && int(m.Hop) < len(conds[m.Cond].steps)
		}
	}
	if !ok {
		return at, e.noStep(m)
	}
	return at, nil
}

// noStep is checkHop's refusal of a message that addresses no bound step.
func (e *Engine) noStep(m *hopMsg) error {
	return fmt.Errorf("pattern: hop message addresses no bound step: action %d, cond %d, hop %d (dest %d; %d actions bound)",
		m.Action, m.Cond, m.Hop, m.Dest, len(e.actions))
}

// liveSet is a set of cursor words: payload slots 0..MaxSlots-1, then the
// generator bindings.
type liveSet uint32

// Generator bindings as liveSet members. On an edge generator the edge's
// endpoint at v is V itself: src(e) of an out-edge and trg(e) of an in-edge
// read bitV, and the receiver restores them from V.
const (
	bitV = MaxSlots + iota
	bitU
	bitES
	bitET
	bitESlot
)

const slotBits liveSet = 1<<MaxSlots - 1

func slotBit(slot int) liveSet { return 1 << slot }

// locBits is what resolving l reads. Bindings the generator never sets (U
// without a vertex generator, the edge without an edge generator) read a
// constant and are no member.
func locBits(l Loc, gen GenKind) liveSet {
	edges := gen == GenOutEdges || gen == GenInEdges
	switch l.Kind {
	case LocV:
		return 1 << bitV
	case LocAccess:
		return slotBit(l.A.slot)
	case LocU:
		if gen == GenAdj || gen == GenPropSet {
			return 1 << bitU
		}
	case LocTrg:
		if gen == GenOutEdges {
			return 1 << bitET
		}
		if gen == GenInEdges {
			return 1 << bitV
		}
	case LocSrc:
		if gen == GenInEdges {
			return 1 << bitES
		}
		if gen == GenOutEdges {
			return 1 << bitV
		}
	case LocE:
		if edges {
			return 1 << bitV
		}
	}
	return 0
}

// edgeBits is what reading the generated edge (an edge-word load or
// modification) reads.
func edgeBits(gen GenKind) liveSet {
	switch gen {
	case GenOutEdges:
		return 1<<bitV | 1<<bitET | 1<<bitESlot
	case GenInEdges:
		return 1<<bitV | 1<<bitES | 1<<bitESlot
	}
	return 0
}

func exprBits(e Expr, gen GenKind) liveSet {
	switch x := e.(type) {
	case AccessExpr:
		return slotBit(x.A.slot)
	case tempRef:
		return slotBit(x.slot)
	case VertexVal:
		return locBits(x.L, gen)
	case Bin:
		return exprBits(x.L, gen) | exprBits(x.R, gen)
	case NotExpr:
		return exprBits(x.X, gen)
	}
	return 0
}

// stepUse is what one step of a condition does with the cursor.
type stepUse struct {
	at     liveSet // read to find the step's vertex; a mailed step recovers it from Dest
	pre    liveSet // read where the step is mailed from: the early-exit test
	reads  liveSet // read at the step before the step writes it
	writes liveSet
}

// uses lists the condition's steps in progCond order: hops, then tail groups.
func (cp *condPlan) uses(gen GenKind) []stepUse {
	eval := len(cp.hops) - 1
	out := make([]stepUse, 0, len(cp.hops)+len(cp.tailGroups))
	for hi := range cp.hops {
		h := &cp.hops[hi]
		u := stepUse{at: locBits(h.at, gen)}
		if hi < eval || cp.sync == syncLock { // an atomic eval hop loads nothing
			for _, acc := range h.loads {
				if acc.Prop.Kind == EdgeWordProp {
					u.reads |= edgeBits(gen)
				}
				u.writes |= slotBit(acc.slot)
			}
			for _, f := range h.folds {
				u.reads |= exprBits(f.expr, gen) &^ u.writes
				u.writes |= slotBit(f.slot)
			}
		}
		if hi == eval {
			// An atomic eval hop's instruction is its test.
			r := cp.modBits(cp.mergedMods, gen)
			if cp.test != nil && cp.sync == syncLock {
				r |= exprBits(cp.test, gen)
			}
			u.reads |= r &^ u.writes
			if cp.preTest != nil {
				u.pre = exprBits(cp.preTest, gen)
			}
		}
		out = append(out, u)
	}
	for _, g := range cp.tailGroups {
		out = append(out, stepUse{at: locBits(g.at, gen), reads: cp.modBits(g.mods, gen)})
	}
	return out
}

// modBits is what applying the modifications mis reads besides the vertex.
func (cp *condPlan) modBits(mis []int, gen GenKind) liveSet {
	var r liveSet
	for _, mi := range mis {
		r |= exprBits(cp.modRhs[mi], gen)
		if cp.cond.Mods[mi].Target.Prop.Kind == EdgeWordProp {
			r |= edgeBits(gen)
		}
	}
	return r
}

// stepAt is the locality of step hi.
func (cp *condPlan) stepAt(hi int) Loc {
	if hi < len(cp.hops) {
		return cp.hops[hi].at
	}
	return cp.tailGroups[hi-len(cp.hops)].at
}

// carrySets computes every step's carried set, backwards over the condition
// chain: the words live on entry to the step — read on some path from it
// before anything writes them — less the step's own locality, which the
// message's Dest restores. The early-exit test is evaluated before the step
// is mailed and adds nothing. A step that no path can reach at another
// vertex than v is never mailed and carries nothing. It fails when a step
// would carry more than hopWords words.
func (ca *compiledAction) carrySets() error {
	gen := ca.action.Gen.Kind
	in := make([]liveSet, len(ca.conds))
	live := func(ci int) liveSet {
		if ci < 0 {
			return 0
		}
		return in[ci]
	}
	for ci := len(ca.conds) - 1; ci >= 0; ci-- {
		cp := &ca.conds[ci]
		uses := cp.uses(gen)
		// Any step can end the condition false; one that did not write
		// first (a NIL locality, an early exit, a filtered or failed
		// atomic hop) hands its live-in straight to the next condition.
		onFalse := live(ca.nextOnFalse[ci])
		after := live(ca.nextOnTrue[ci])
		cp.carry = make([]liveSet, len(uses))
		for hi := len(uses) - 1; hi >= 0; hi-- {
			u := uses[hi]
			mailed := u.reads | (after|onFalse)&^u.writes
			cp.carry[hi] = mailed &^ u.at
			after = mailed | u.at | u.pre | onFalse
		}
		in[ci] = after
	}
	moved := false
	for ci := range ca.conds {
		cp := &ca.conds[ci]
		for hi := range cp.carry {
			if cp.stepAt(hi).Kind != LocV {
				moved = true
			}
			if !moved {
				cp.carry[hi] = 0
				continue
			}
			if n := bits.OnesCount32(uint32(cp.carry[hi])); n > hopWords {
				return fmt.Errorf("action %s: condition %d hop %d carries %d words (max %d)",
					ca.action.Name, ci, hi, n, hopWords)
			}
		}
	}
	return nil
}

// exitLoads returns the accesses loaded on every path out of the condition
// that ends true and on every path that ends false, given in, the accesses
// loaded on every path into it. A true path runs every hop, but an atomic
// eval hop applies its instruction without loading. A false path can stop
// at the first hop whose locality may be NIL, and an early exit or the
// send-side filter skips the eval hop; a lock-synchronized eval hop that runs
// loads before it tests.
func (cp *condPlan) exitLoads(in map[*Access]bool, gen Generator) (onTrue, onFalse map[*Access]bool) {
	onTrue, onFalse = maps.Clone(in), maps.Clone(in)
	eval := len(cp.hops) - 1
	sure := eval // hops before sure run on every path through the condition
	evalRuns := cp.sync == syncLock && cp.preTest == nil && !cp.filter
	for hi := range cp.hops {
		if l := cp.hops[hi].at; l.Kind == LocAccess || (l.Kind == LocU && gen.Kind == GenPropSet) {
			sure, evalRuns = min(sure, hi), false
			break
		}
	}
	for hi := range cp.hops {
		if hi == eval && cp.sync != syncLock {
			break
		}
		for _, acc := range cp.hops[hi].loads {
			onTrue[acc] = true
			if hi < sure || evalRuns {
				onFalse[acc] = true
			}
		}
	}
	return onTrue, onFalse
}

// lanes turns a carried set into a pack table: the cursor word of each lane,
// in member order.
func lanes(s liveSet) []uint8 {
	var out []uint8
	for ; s != 0; s &= s - 1 {
		out = append(out, uint8(bits.TrailingZeros32(uint32(s))))
	}
	return out
}

// word reads cursor word w (a liveSet member).
func (m *patMsg) word(w uint8) Word {
	if w < MaxSlots {
		return m.Vals[w]
	}
	switch w {
	case bitV:
		return Word(m.V)
	case bitU:
		return Word(m.U)
	case bitES:
		return Word(m.ES)
	case bitET:
		return Word(m.ET)
	}
	return Word(m.ESlot)
}

// setWord writes cursor word w (a liveSet member).
func (m *patMsg) setWord(w uint8, x Word) {
	if w < MaxSlots {
		m.Vals[w] = x
		return
	}
	switch w {
	case bitV:
		m.V = distgraph.Vertex(x)
	case bitU:
		m.U = distgraph.Vertex(x)
	case bitES:
		m.ES = distgraph.Vertex(x)
	case bitET:
		m.ET = distgraph.Vertex(x)
	default:
		m.ESlot = uint32(x)
	}
}

// pack writes the step's carried words into h.
func (st *progStep) pack(m *patMsg, h *hopMsg) {
	for i, w := range st.carry {
		h.W[i] = m.word(w)
	}
}

// unpack rebuilds the cursor of a hop mailed to step st: the action's fixed
// bindings, the carried words, and the step's locality from the destination.
// Every other payload slot reads zero.
func (p *program) unpack(st *progStep, h *hopMsg, m *patMsg) {
	*m = p.blank
	for i, w := range st.carry {
		m.setWord(w, h.W[i])
	}
	switch st.at.kind {
	case LocV:
		m.V = h.Dest
	case LocU:
		m.U = h.Dest
	case LocTrg:
		m.ET = h.Dest
	case LocSrc:
		m.ES = h.Dest
	case LocAccess:
		m.Vals[st.at.slot] = Word(h.Dest)
	}
	switch p.gen {
	case GenOutEdges:
		m.ES = m.V
	case GenInEdges:
		m.ET = m.V
	}
}
