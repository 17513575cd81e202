package pattern

import (
	"fmt"
	"sync/atomic"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pmap"
)

// patMsg is the engine's single active-message type: one step of an action's
// execution, carrying the generator bindings and the gathered payload. Dest
// is the locality vertex, from which the destination rank is computed
// (object-based addressing, §IV-D).
type patMsg struct {
	Action int32
	Cond   int16
	Hop    int16 // hop index within Cond, or hopEntry / hopFire
	Dest   distgraph.Vertex
	V      distgraph.Vertex
	U      distgraph.Vertex
	ES, ET distgraph.Vertex
	ESlot  uint32
	EIn    bool
	HasE   bool
	Vals   [MaxSlots]Word
}

// Negative patMsg.Hop values address something other than a plan hop.
const (
	// hopEntry runs the generator at owner(V).
	hopEntry int16 = -1
	// hopFire runs the work hook at owner(Dest): a co-resident rank applied
	// a modification to Dest in place, the value changed, and the action
	// reads the modified property (§IV-C). Only Action and Dest are set.
	// The hook still runs on the owning rank, inside the epoch, covered by
	// the same termination accounting as any other message. A coalesced
	// rerun hook (rerun.go) needs no owner thread and is never sent as one.
	hopFire int16 = -2
)

func (m *patMsg) edgeRef() distgraph.EdgeRef {
	return distgraph.EdgeRef{S: m.ES, T: m.ET, Slot: m.ESlot, In: m.EIn}
}

// binding resolves a declared property to concrete storage.
type binding struct {
	vw *pmap.VertexWord
	ew *pmap.EdgeWord
	vs *pmap.VertexSet
}

// Bindings maps property names to storage: *pmap.VertexWord for
// vertex-properties, *pmap.EdgeWord for edge-properties, *pmap.VertexSet for
// vertex-set-properties.
type Bindings map[string]any

// Engine executes compiled patterns over a universe and a distributed
// graph. Create it (and Bind patterns) before Universe.Run; the engine
// registers one message type.
type Engine struct {
	u  *am.Universe
	g  *distgraph.Graph
	lm *pmap.LockMap
	// dist and nv cache g's distribution and vertex count for the per-hop
	// owner lookup.
	dist    distgraph.Distribution
	nv      int
	opts    PlanOptions
	msg     *am.MsgType[patMsg]
	actions []*BoundAction
	// filters is the send-side filter state of every vertex-word map a bound
	// action writes (filter.go).
	filters map[*pmap.VertexWord]*filter
}

// NewEngine creates a pattern engine. lm provides §IV-B's lock map (used for
// multi-value conditions); opts selects the §IV planning optimizations.
func NewEngine(u *am.Universe, g *distgraph.Graph, lm *pmap.LockMap, opts PlanOptions) *Engine {
	e := &Engine{u: u, g: g, lm: lm, dist: g.Dist(), nv: g.NumVertices(), opts: opts,
		filters: map[*pmap.VertexWord]*filter{}}
	e.msg = am.Register(u, "pattern-step", func(r *am.Rank, m patMsg) {
		e.dispatch(r, m)
	}).WithAddresser(func(m patMsg) int { return g.Owner(m.Dest) })
	u.RegisterCheckpointer(e)
	return e
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *distgraph.Graph { return e.g }

// Universe returns the engine's universe.
func (e *Engine) Universe() *am.Universe { return e.u }

// MsgType exposes the engine's message type (for configuring coalescing or
// reductions in experiments).
func (e *Engine) MsgType() *am.MsgType[patMsg] { return e.msg }

// Bound is one pattern bound to storage with compiled plans.
type Bound struct {
	Pattern *Pattern
	actions map[string]*BoundAction
}

// Action returns the named bound action, panicking if absent.
func (b *Bound) Action(name string) *BoundAction {
	ba, ok := b.actions[name]
	if !ok {
		panic("pattern: no action " + name + " in pattern " + b.Pattern.Name)
	}
	return ba
}

// Bind compiles p's actions against the engine's plan options and resolves
// its property declarations to storage. Must be called before Universe.Run.
func (e *Engine) Bind(p *Pattern, binds Bindings) (*Bound, error) {
	resolved := map[*Prop]binding{}
	for _, pr := range p.Props {
		raw, ok := binds[pr.Name]
		if !ok {
			return nil, fmt.Errorf("pattern %s: no binding for property %s", p.Name, pr.Name)
		}
		var bd binding
		switch m := raw.(type) {
		case *pmap.VertexWord:
			if pr.Kind != VertexWordProp {
				return nil, fmt.Errorf("property %s is %v, bound to VertexWord", pr.Name, pr.Kind)
			}
			// The engine resolves (owner, local index) from the graph's
			// distribution and addresses the map by index.
			if m.Dist() != e.dist {
				return nil, fmt.Errorf("property %s: map distribution differs from the graph's", pr.Name)
			}
			bd.vw = m
		case *pmap.EdgeWord:
			if pr.Kind != EdgeWordProp {
				return nil, fmt.Errorf("property %s is %v, bound to EdgeWord", pr.Name, pr.Kind)
			}
			bd.ew = m
		case *pmap.VertexSet:
			if pr.Kind != VertexSetProp {
				return nil, fmt.Errorf("property %s is %v, bound to VertexSet", pr.Name, pr.Kind)
			}
			bd.vs = m
		default:
			return nil, fmt.Errorf("property %s: unsupported binding type %T", pr.Name, raw)
		}
		resolved[pr] = bd
	}
	b := &Bound{Pattern: p, actions: map[string]*BoundAction{}}
	for _, a := range p.Actions {
		ca, err := compileAction(a, len(e.actions), e.opts)
		if err != nil {
			return nil, err
		}
		ba := &BoundAction{
			eng:      e,
			ca:       ca,
			binds:    resolved,
			modified: make([]atomic.Bool, e.u.Ranks()),
			st:       make([]obs.Shard, e.u.Ranks()),
			Stats:    newStats(e.u.Ranks()),
		}
		for rank := range ba.st {
			ba.st[rank] = ba.Stats.c.Shard(rank)
		}
		e.bindFilters(ba)
		e.actions = append(e.actions, ba)
		b.actions[a.Name] = ba
	}
	return b, nil
}

// Counter ids of one bound action's Stats.
const (
	sInvocations = iota
	sItems
	sTestsTrue
	sTestsFalse
	sModsChanged
	sModsUnchanged
	sWorkItems
	sDirectHops
	sFilteredHops
	numStats
)

var statNames = [numStats]string{
	"invocations", "items", "tests_true", "tests_false",
	"mods_changed", "mods_unchanged", "work_items", "direct_hops",
	"filtered_hops",
}

// Counter is the read side of one engine counter. The write side is sharded
// per rank (internal/obs): a rank's threads count on the rank's own padded
// cache lines, and Load sums the shards — exact at quiescent points.
type Counter struct {
	c  *obs.Counters
	id int
}

// Load returns the counter's value summed over ranks.
func (c Counter) Load() int64 { return c.c.Total(c.id) }

// Stats counts engine-level events per action.
type Stats struct {
	c *obs.Counters
	// Invocations counts action entries (one per Invoke).
	Invocations Counter
	// Items counts generated items (edges/vertices fanned out to).
	Items Counter
	// TestsTrue / TestsFalse count condition evaluations by outcome.
	TestsTrue, TestsFalse Counter
	// ModsChanged / ModsUnchanged count modification applications.
	ModsChanged, ModsUnchanged Counter
	// WorkItems counts dependency work-hook firings (§IV-C).
	WorkItems Counter
	// DirectHops counts hops executed in place against a co-resident
	// owner's shard instead of being sent as messages.
	DirectHops Counter
	// FilteredHops counts eval hops the send-side filter answered false at
	// the sender instead of sending: this rank had already offered the
	// vertex a value at least as good in the same epoch attempt. Each is
	// also counted in TestsFalse.
	FilteredHops Counter
}

// newStats allocates one action's counters, sharded per rank.
func newStats(ranks int) Stats {
	c := obs.NewCounters(ranks, statNames[:]...)
	at := func(id int) Counter { return Counter{c: c, id: id} }
	return Stats{
		c:           c,
		Invocations: at(sInvocations), Items: at(sItems),
		TestsTrue: at(sTestsTrue), TestsFalse: at(sTestsFalse),
		ModsChanged: at(sModsChanged), ModsUnchanged: at(sModsUnchanged),
		WorkItems: at(sWorkItems), DirectHops: at(sDirectHops),
		FilteredHops: at(sFilteredHops),
	}
}

// WriteMetrics emits the bound actions' counters as declpat_pattern_*_total
// counter families, one sample per action name (actions bound more than once
// — the query plane's slot pools — are summed). Safe while the universe runs.
func (e *Engine) WriteMetrics(om *obs.OMWriter) {
	byAction := map[string]*[numStats]int64{}
	for _, ba := range e.actions {
		t := byAction[ba.Name()]
		if t == nil {
			t = new([numStats]int64)
			byAction[ba.Name()] = t
		}
		for id := range t {
			t[id] += ba.Stats.c.Total(id)
		}
	}
	actions := obs.SortedKeys(byAction)
	for id, name := range statNames {
		fam := "declpat_pattern_" + name + "_total"
		om.Family(fam, "counter", "Pattern engine counter "+name+" by action.")
		for _, a := range actions {
			om.SampleInt(fam, []string{"action", a}, byAction[a][id])
		}
	}
}

// BoundAction is an action bound to storage, ready to invoke inside epochs.
type BoundAction struct {
	eng   *Engine
	ca    *compiledAction
	binds map[*Prop]binding
	work  func(r *am.Rank, v distgraph.Vertex)
	// pending[rank][li] is the coalesced rerun hook's word for the vertex at
	// local index li of rank's shard (rerun.go); nil unless SetWorkRerun
	// installed the hook on a coalescible action.
	pending  [][]atomic.Uint32
	modified []atomic.Bool
	// filters[ci] is the send-side filter of condition ci's eval hop, nil
	// when the planner did not mark the hop filter-eligible.
	filters []*filter
	st      []obs.Shard // Stats' write side, one shard per rank
	Stats   Stats
}

// count adds one to counter id on r's shard.
func (ba *BoundAction) count(r *am.Rank, id int) { ba.st[r.ID()].Inc(id) }

// Name returns the action's name.
func (ba *BoundAction) Name() string { return ba.ca.action.Name }

// PlanInfo returns the compiled message plan for inspection. Filter is shown
// only where the engine filters: Bind declines an eligible hop whose map some
// bound action writes another way. Coalesced is the planner's mark; it takes
// effect once SetWorkRerun makes the action its own work hook.
func (ba *BoundAction) PlanInfo() PlanInfo {
	pi := ba.ca.info()
	for ci := range pi.Conds {
		if !ba.filtered(ci) {
			pi.Conds[ci].Filter = ""
		}
	}
	return pi
}

// SetWork installs the work hook called at the owner of a dependent vertex
// when a modification read by the action changes its value (§IV-C). The
// paper's `a.work(Vertex v) = {...}` customization point. The hook runs in
// handler context and must not block; to re-run the action itself declare
// SetWorkRerun, and to run another action use InvokeAsync, not Invoke.
func (ba *BoundAction) SetWork(fn func(r *am.Rank, v distgraph.Vertex)) {
	ba.work, ba.pending = fn, nil
}

// ResetModified clears this rank's modification flag (used by the `once`
// strategy).
func (ba *BoundAction) ResetModified(r *am.Rank) { ba.modified[r.ID()].Store(false) }

// ModifiedLocal reports whether any modification applied by this rank changed
// a value since ResetModified. With direct application the applying rank is
// not always the owner of the modified vertex; the flag exists to be
// or-reduced over all ranks (the `once` strategy), which is indifferent to
// which rank raised it.
func (ba *BoundAction) ModifiedLocal(r *am.Rank) bool { return ba.modified[r.ID()].Load() }

// Invoke runs the action at v. If v is local the entry executes inline;
// otherwise an entry message is sent. Must be called inside an epoch.
func (ba *BoundAction) Invoke(r *am.Rank, v distgraph.Vertex) {
	if ba.eng.g.Owner(v) == r.ID() {
		ba.runEntry(r, v)
		return
	}
	ba.InvokeAsync(r, v)
}

// InvokeAsync enqueues the action at v through the messaging layer even when
// v is local, bounding stack depth; safe to call from work hooks.
func (ba *BoundAction) InvokeAsync(r *am.Rank, v distgraph.Vertex) {
	ba.eng.msg.Send(r, patMsg{Action: int32(ba.ca.id), Hop: hopEntry, Dest: v, V: v})
}

// dispatch routes an incoming engine message.
func (e *Engine) dispatch(r *am.Rank, m patMsg) {
	ba := e.actions[m.Action]
	switch m.Hop {
	case hopEntry:
		ba.runEntry(r, m.V)
	case hopFire:
		ba.fireWork(r, m.Dest)
	default:
		ba.resume(r, &m)
	}
}

// site is the resolved storage address of a hop's locality vertex: the rank
// that owns it and its index in that rank's shards. The engine resolves it
// once per hop and addresses the vertex-word maps by index. rank is this
// rank, or — on a directly applied hop — a co-resident one.
type site struct {
	rank, li int
}

// runEntry executes the generator at owner(v) and starts every generated
// item through the condition chain.
func (ba *BoundAction) runEntry(r *am.Rank, v distgraph.Vertex) {
	ba.count(r, sInvocations)
	g := ba.eng.g
	a := ba.ca.action
	at := site{rank: r.ID(), li: ba.eng.dist.Local(v)}
	if ba.pending != nil {
		// This run reads v's values from here on: a change that lands later
		// must request a run of its own.
		ba.pending[at.rank][at.li].Store(0)
	}
	base := patMsg{Action: int32(ba.ca.id), V: v, U: distgraph.NilVertex}
	switch a.Gen.Kind {
	case GenNone:
		ba.startItem(r, base, at)
	case GenOutEdges:
		g.ForOutEdges(r.ID(), v, func(er distgraph.EdgeRef) {
			m := base
			m.HasE, m.ES, m.ET, m.ESlot, m.EIn = true, er.S, er.T, er.Slot, er.In
			ba.startItem(r, m, at)
		})
	case GenInEdges:
		g.ForInEdges(r.ID(), v, func(er distgraph.EdgeRef) {
			m := base
			m.HasE, m.ES, m.ET, m.ESlot, m.EIn = true, er.S, er.T, er.Slot, er.In
			ba.startItem(r, m, at)
		})
	case GenAdj:
		g.ForAdj(r.ID(), v, func(u distgraph.Vertex) {
			m := base
			m.U = u
			ba.startItem(r, m, at)
		})
	case GenPropSet:
		vs := ba.binds[a.Gen.Set].vs
		for _, u := range vs.Members(r.ID(), v) {
			m := base
			m.U = u
			ba.startItem(r, m, at)
		}
	}
}

// startItem runs the entry hop (at v, resolved to at) for one generated item
// and drives it through the condition chain.
func (ba *BoundAction) startItem(r *am.Rank, m patMsg, at site) {
	ba.count(r, sItems)
	ba.execSteps(&m, &ba.ca.entry, at)
	ba.advance(r, &m, 0, 0)
}

// resume continues execution at an incoming hop message. The sender already
// evaluated the condition's early-exit preTest, so it is skipped here.
func (ba *BoundAction) resume(r *am.Rank, m *patMsg) {
	ba.advanceFrom(r, m, int(m.Cond), int(m.Hop), true)
}

// locVertex resolves a normalized locality to a concrete vertex in the
// context of m. Returns NilVertex for NIL pointer chains.
func (ba *BoundAction) locVertex(m *patMsg, l Loc) distgraph.Vertex {
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
		// The generated edge's locality is its generation vertex
		// (Def. 1); reached for raw (unnormalized) edge-property
		// targets, e.g. when firing dependencies.
		return m.edgeRef().GenVertex()
	}
	panic("pattern: unresolvable locality " + l.String())
}

// advance drives the (cond, hop) cursor. A hop whose locality vertex this
// rank owns executes inline. So does a direct-eligible hop (PlanOptions.Direct)
// whose owner is co-resident: this thread performs its single-word operation
// against the owner's shard and the cursor carries on here. Any other hop is
// sent to its owner as one message — unless it is a filtered eval hop that
// cannot beat what this rank already sent the vertex, which is answered false
// here (filter.go). Hop indices >= len(hops) address tail modification groups,
// which are never direct.
func (ba *BoundAction) advance(r *am.Rank, m *patMsg, ci, hi int) {
	ba.advanceFrom(r, m, ci, hi, false)
}

func (ba *BoundAction) advanceFrom(r *am.Rank, m *patMsg, ci, hi int, fromWire bool) {
	e := ba.eng
	for ci >= 0 {
		first := fromWire
		fromWire = false
		cp := &ba.ca.conds[ci]
		nHops := len(cp.hops)
		// Early exit: the pre-decidable conjuncts are evaluated before
		// the eval-hop message is sent (skipped when this position
		// arrived over the wire — the sender already checked).
		if !first && hi == nHops-1 && cp.preTest != nil {
			if ba.eval(m, cp.preTest) == 0 {
				ba.count(r, sTestsFalse)
				ci, hi = ba.ca.nextOnFalse[ci], 0
				continue
			}
		}
		var loc Loc
		direct := false
		isTail := hi >= nHops
		if isTail {
			ti := hi - nHops
			if ti >= len(cp.tailGroups) {
				// Condition complete (true path): next if-group.
				ci, hi = ba.ca.nextOnTrue[ci], 0
				continue
			}
			loc = cp.tailGroups[ti].at
		} else {
			loc, direct = cp.hops[hi].at, cp.hops[hi].direct
		}
		dest := ba.locVertex(m, loc)
		if dest == distgraph.NilVertex || int(dest) >= e.nv {
			// A NIL pointer (or an out-of-range word used as a
			// vertex) in the locality chain: the condition cannot
			// be evaluated; treat it as false.
			ba.count(r, sTestsFalse)
			ci, hi = ba.ca.nextOnFalse[ci], 0
			continue
		}
		owner := e.dist.Owner(dest)
		if owner != r.ID() {
			if !direct || !r.Coresident(owner) {
				if hi == nHops-1 && ba.filtered(ci) &&
					!ba.filters[ci].offer(r, dest, ba.eval(m, cp.modRhs[cp.mergedMods[0]])) {
					ba.count(r, sFilteredHops)
					ba.count(r, sTestsFalse)
					ci, hi = ba.ca.nextOnFalse[ci], 0
					continue
				}
				m.Dest, m.Cond, m.Hop = dest, int16(ci), int16(hi)
				e.msg.SendTo(r, owner, *m)
				return
			}
			ba.count(r, sDirectHops)
		}
		at := site{rank: owner, li: e.dist.Local(dest)}
		if isTail {
			ba.execTail(r, m, cp, hi-nHops, dest, at)
			hi++
			continue
		}
		if hi == nHops-1 {
			// Eval hop.
			if ba.execEval(r, m, cp, dest, at) {
				hi = nHops // proceed to tail modification groups
			} else {
				ci, hi = ba.ca.nextOnFalse[ci], 0
			}
			continue
		}
		ba.execSteps(m, &cp.hops[hi], at)
		hi++
	}
}

// execSteps performs a gather hop at the vertex resolved to at: loads then
// folds.
func (ba *BoundAction) execSteps(m *patMsg, h *hop, at site) {
	for _, acc := range h.loads {
		m.Vals[acc.slot] = ba.readAccess(m, acc, at)
	}
	for _, f := range h.folds {
		m.Vals[f.slot] = ba.eval(m, f.expr)
	}
}

// readAccess loads one property value of the hop executing at at. Every
// load of a hop is at the hop's own locality vertex (that is what the
// planner groups hops by): a vertex word is that vertex's, and an edge word
// is the generated edge's, stored at its generation vertex.
func (ba *BoundAction) readAccess(m *patMsg, acc *Access, at site) Word {
	bd := ba.binds[acc.Prop]
	switch acc.Prop.Kind {
	case EdgeWordProp:
		return bd.ew.Get(at.rank, m.edgeRef())
	case VertexWordProp:
		return bd.vw.GetAt(at.rank, at.li)
	}
	panic("pattern: unreadable property " + acc.Prop.Name)
}

// eval evaluates an expression against the gathered payload.
func (ba *BoundAction) eval(m *patMsg, e Expr) Word {
	switch x := e.(type) {
	case Const:
		return x.X
	case VertexVal:
		return vertexWord(ba.locVertex(m, x.L))
	case AccessExpr:
		return m.Vals[x.A.slot]
	case tempRef:
		return m.Vals[x.slot]
	case NotExpr:
		if ba.eval(m, x.X) != 0 {
			return 0
		}
		return 1
	case Bin:
		l := ba.eval(m, x.L)
		rr := ba.eval(m, x.R)
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

func b2w(b bool) Word {
	if b {
		return 1
	}
	return 0
}

// execEval runs the eval hop at dest (resolved to at): deferred loads,
// condition test, and — in merge mode — the first modification group, all
// synchronized per §IV-B. The atomic kinds may run against a co-resident
// owner's shard (at.rank != r.ID()); the lock kind always runs on the owner.
func (ba *BoundAction) execEval(r *am.Rank, m *patMsg, cp *condPlan, dest distgraph.Vertex, at site) bool {
	if cp.sync != syncLock {
		mi := cp.mergedMods[0]
		changed := ba.applyAtomic(m, cp, mi, dest, at)
		ba.recordMod(r, changed)
		// For the detected relax shape the condition outcome is whether
		// the update improved the value.
		if changed {
			ba.count(r, sTestsTrue)
			if cp.cond.Mods[mi].firesDependency {
				ba.fire(r, dest, at)
			}
		} else {
			ba.count(r, sTestsFalse)
		}
		return changed
	}
	h := &cp.hops[len(cp.hops)-1]
	var fired []distgraph.Vertex
	result := false
	ba.eng.lm.With(r.ID(), dest, func() {
		ba.execSteps(m, h, at)
		result = cp.test == nil || ba.eval(m, cp.test) != 0
		if result {
			ba.count(r, sTestsTrue)
			fired = ba.applyMods(r, m, cp, cp.mergedMods, dest, at, fired)
		} else {
			ba.count(r, sTestsFalse)
		}
	})
	for _, v := range fired {
		ba.fireWork(r, v)
	}
	return result
}

// execTail applies one tail modification group at dest (owned by this rank).
func (ba *BoundAction) execTail(r *am.Rank, m *patMsg, cp *condPlan, ti int, dest distgraph.Vertex, at site) {
	var fired []distgraph.Vertex
	ba.eng.lm.With(r.ID(), dest, func() {
		fired = ba.applyMods(r, m, cp, cp.tailGroups[ti].mods, dest, at, fired)
	})
	for _, v := range fired {
		ba.fireWork(r, v)
	}
}

// applyMods applies one modification group at dest (caller holds dest's
// lock) and appends dest to fired once per changed modification whose
// property the action reads.
func (ba *BoundAction) applyMods(r *am.Rank, m *patMsg, cp *condPlan, mods []int, dest distgraph.Vertex, at site, fired []distgraph.Vertex) []distgraph.Vertex {
	for _, mi := range mods {
		changed := ba.applyMod(m, cp, mi, dest, at)
		ba.recordMod(r, changed)
		if changed && cp.cond.Mods[mi].firesDependency {
			fired = append(fired, dest)
		}
	}
	return fired
}

// applyAtomic performs the single-value atomic path (§IV-B) on dest's value
// in its owner's shard.
func (ba *BoundAction) applyAtomic(m *patMsg, cp *condPlan, mi int, dest distgraph.Vertex, at site) bool {
	bd := ba.binds[cp.cond.Mods[mi].Target.Prop]
	rhs := ba.eval(m, cp.modRhs[mi])
	switch cp.sync {
	case syncAtomicInsert:
		return bd.vs.Insert(at.rank, dest, wordVertex(rhs))
	case syncAtomicMin:
		return bd.vw.MinAt(at.rank, at.li, rhs)
	case syncAtomicMax:
		return bd.vw.MaxAt(at.rank, at.li, rhs)
	case syncAtomicAdd:
		bd.vw.AddAt(at.rank, at.li, rhs)
		return rhs != 0
	}
	panic("pattern: applyAtomic on lock-classified condition")
}

// applyMod applies one modification at dest (caller holds dest's lock, on
// dest's owner) and reports whether the stored value changed.
func (ba *BoundAction) applyMod(m *patMsg, cp *condPlan, mi int, dest distgraph.Vertex, at site) bool {
	mod := &cp.cond.Mods[mi]
	bd := ba.binds[mod.Target.Prop]
	rhs := ba.eval(m, cp.modRhs[mi])
	switch mod.Target.Prop.Kind {
	case VertexSetProp:
		if bd.vs.Locks() == ba.eng.lm {
			// The caller (execEval/execTail) already holds dest's
			// lock from the engine's lock map; re-locking the same
			// non-reentrant lock would self-deadlock.
			return bd.vs.InsertLocked(at.rank, dest, wordVertex(rhs))
		}
		return bd.vs.Insert(at.rank, dest, wordVertex(rhs))
	case EdgeWordProp:
		old := bd.ew.Get(at.rank, m.edgeRef())
		nv := modValue(mod.Op, old, rhs)
		if nv == old {
			return false
		}
		bd.ew.Set(at.rank, m.edgeRef(), nv)
		return true
	case VertexWordProp:
		old := bd.vw.GetAt(at.rank, at.li)
		nv := modValue(mod.Op, old, rhs)
		if nv == old {
			return false
		}
		bd.vw.SetAt(at.rank, at.li, nv)
		return true
	}
	panic("pattern: unapplicable modification")
}

func modValue(op ModOp, old, rhs Word) Word {
	switch op {
	case OpAssign:
		return rhs
	case OpAssignMin:
		if rhs < old {
			return rhs
		}
		return old
	case OpAssignMax:
		if rhs > old {
			return rhs
		}
		return old
	case OpAssignAdd:
		return old + rhs
	}
	panic("pattern: bad mod op")
}

func (ba *BoundAction) recordMod(r *am.Rank, changed bool) {
	if changed {
		ba.count(r, sModsChanged)
		// The ranks' flags share a cache line: raise it once, then only read.
		if f := &ba.modified[r.ID()]; !f.Load() {
			f.Store(true)
		}
	} else {
		ba.count(r, sModsUnchanged)
	}
}

// fire runs the dependency work hook for v, whose value this rank just
// changed in the shard of at.rank. A hook function belongs to the owning rank
// (it files v into that rank's buckets), so after a direct application it
// travels as a hopFire message — the only message a directly applied hop ever
// costs, and only when it carried news. A coalesced rerun hook is a word in
// the owner's memory and an entry message: this thread requests the re-run
// itself, and the firing is counted where it happened.
func (ba *BoundAction) fire(r *am.Rank, v distgraph.Vertex, at site) {
	switch {
	case at.rank == r.ID() || ba.work == nil:
		ba.fireWork(r, v)
	case ba.pending != nil:
		ba.count(r, sWorkItems)
		ba.requestRerun(r, v, at)
	default:
		ba.eng.msg.SendTo(r, at.rank, patMsg{Action: int32(ba.ca.id), Hop: hopFire, Dest: v})
	}
}

func (ba *BoundAction) fireWork(r *am.Rank, v distgraph.Vertex) {
	ba.count(r, sWorkItems)
	if ba.work != nil {
		ba.work(r, v)
	}
}
