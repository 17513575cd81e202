package pattern

import (
	"fmt"
	"maps"
	"math/bits"
	"strings"
)

// PlanOptions toggles the paper's §IV optimizations individually so the
// experiment suite can measure each one.
type PlanOptions struct {
	// Merge places the gather hop at the first modification's locality
	// last and merges condition evaluation with the modification there
	// (§IV-A). Disabling it reproduces the separate gather/evaluate/modify
	// message scheme (more messages, and no read-modify-write consistency
	// for the modified value).
	Merge bool
	// Fold precomputes subexpressions whose inputs are available before
	// the final hop and carries them as single payload words (Fig. 6's
	// dist[v]+weight[e]).
	Fold bool
	// NaiveDFS gathers values in depth-first tree order with explicit
	// backtracking hops instead of jumping directly between siblings
	// (the unoptimized traversal of Fig. 5).
	NaiveDFS bool
	// EarlyExit splits off the conjuncts of a condition's test whose
	// values are available before the final hop and evaluates them
	// early: when they fail, the evaluate message is never sent. This
	// generalizes §IV-A's "if the previous condition is false, the next
	// condition is evaluated right away if all the necessary values are
	// available" to intra-condition filters (e.g. Δ-stepping's light/heavy
	// edge split, which guards relaxation with a weight test local to v).
	EarlyExit bool
	// Direct marks every hop whose whole effect at its locality vertex is a
	// single-word atomic operation — a gather hop that only loads words and
	// folds them, or an eval hop §IV-B classifies atomic (min, max, add,
	// insert) — as direct-eligible. The engine executes such a hop on the
	// sending thread, against the owner's shard, when the owner is
	// co-resident (am.Rank.Coresident), and sends it as a message otherwise;
	// lock-synchronised eval hops and tail modification groups are always
	// messages. This is not one of the paper's optimizations (its ranks are
	// separate machines): turn it off to reproduce the paper's message
	// counts on the in-process transport.
	Direct bool
	// Filter marks an eval hop whose whole effect is one monotone word
	// update — §IV-B's atomic-min or atomic-max with nothing after it and a
	// right-hand side known before the hop — as filter-eligible. When such a
	// hop has to travel as a message, the sending rank first checks the best
	// value it has already offered to that vertex in the current epoch
	// attempt and, if this one cannot beat it, takes the condition's false
	// branch at once instead of sending (the engine's send-side filter; see
	// DESIGN.md). Like Direct it is not one of the paper's optimizations:
	// turn it off to reproduce the paper's message counts.
	Filter bool
	// Coalesce marks an action whose modifications all repeat harmlessly
	// (assign, min, max, insert — anything but `+=`) as coalescible. When such
	// an action's work hook is the action itself (BoundAction.SetWorkRerun,
	// the fixed_point strategy), the engine keeps one pending word per vertex
	// and mails a re-run of v only when none is already waiting to start:
	// the waiting one reads v's values when it starts and so sees every
	// change that lands before then (the engine's coalesced re-invocation;
	// see DESIGN.md). Not one of the paper's optimizations: turn it off to
	// reproduce the paper's one re-run per change.
	Coalesce bool
}

// DefaultPlanOptions returns the paper's configuration — merged evaluation,
// folding, direct sibling jumps, early exit — plus Direct, Filter and
// Coalesce.
func DefaultPlanOptions() PlanOptions {
	return PlanOptions{Merge: true, Fold: true, EarlyExit: true, Direct: true, Filter: true, Coalesce: true}
}

// normalizeLoc maps a locality designator to the vertex it denotes, folding
// entry-local designators onto LocV (src(e)=v for out-edges, trg(e)=v for
// in-edges, and the generated edge itself lives at the generation vertex).
func normalizeLoc(l Loc, gen Generator) Loc {
	switch l.Kind {
	case LocE:
		return Loc{Kind: LocV}
	case LocSrc:
		if gen.Kind == GenOutEdges {
			return Loc{Kind: LocV}
		}
	case LocTrg:
		if gen.Kind == GenInEdges {
			return Loc{Kind: LocV}
		}
	}
	return l
}

// locKey builds a structural identity for a normalized locality.
func locKey(l Loc) string {
	if l.Kind == LocAccess {
		return "@" + accessKey(l.A)
	}
	return l.String()
}

func accessKey(a *Access) string {
	return a.Prop.Name + "[" + locKey(Loc{Kind: a.At.Kind, A: a.At.A}) + keySuffix(a.At) + "]"
}

// keySuffix distinguishes raw designators that normalize identically only in
// context; accesses are keyed pre-normalization so dist[src(e)] and dist[v]
// stay distinct accesses even when co-located.
func keySuffix(l Loc) string {
	switch l.Kind {
	case LocSrc:
		return "#src"
	case LocTrg:
		return "#trg"
	case LocE:
		return "#e"
	}
	return ""
}

// hop is one step of a condition's message plan: the locality to execute at,
// the accesses to load there, and the temporaries computable afterwards.
type hop struct {
	at    Loc // normalized
	loads []*Access
	folds []foldStep
	// direct: everything this hop does at its vertex is one single-word
	// atomic operation, so a co-resident sender may execute it in place
	// (PlanOptions.Direct). Set by markDirect once the condition's
	// synchronization is classified.
	direct bool
}

type foldStep struct {
	expr Expr
	slot int
}

// atomicKind classifies how a merged condition synchronizes (§IV-B).
type atomicKind int

const (
	syncLock atomicKind = iota
	syncAtomicMin
	syncAtomicMax
	syncAtomicAdd
	syncAtomicInsert
)

func (k atomicKind) String() string {
	return [...]string{"lock", "atomic-min", "atomic-max", "atomic-add", "atomic-insert"}[k]
}

type modGroup struct {
	at   Loc
	mods []int // indices into cond.Mods
}

// condPlan is the compiled message plan of one condition.
type condPlan struct {
	cond *Cond
	// test and modRhs are the (possibly fold-rewritten) expressions.
	test   Expr
	modRhs []Expr
	// preTest holds the early-exit conjuncts (nil when disabled or when
	// no conjunct is decidable before the eval hop). It is evaluated
	// before the eval-hop message is sent; false short-circuits the
	// condition.
	preTest Expr

	hops       []hop // first hop may be at LocV (returning to v); last hop = eval site
	mergedMods []int // mod indices applied at the eval hop (Merge mode)
	tailGroups []modGroup

	sync atomicKind
	// carry is each step's carried set, in progCond order (carrySets).
	carry []liveSet
	// filter: the eval hop is one monotone word update a sender can decide
	// hopeless from what it has already sent (PlanOptions.Filter). Set by
	// markFilter; the engine may still decline it at Bind (see bindFilters).
	filter bool
}

// messages returns the per-generated-item message count of this condition's
// plan when every hop crosses vertices: gather+eval hops plus tail
// modification messages.
func (cp *condPlan) messages() int { return len(cp.hops) + len(cp.tailGroups) }

// compiledAction is an action plus its compiled plans.
type compiledAction struct {
	action   *Action
	id       int
	accesses []*Access // canonical, slot = index
	nSlots   int
	entry    hop // entry-local loads + folds (at LocV, executed at owner(v))
	conds    []condPlan
	// nextOnTrue/nextOnFalse give the next condition index (or -1) for the
	// if/elif/else chaining.
	nextOnTrue  []int
	nextOnFalse []int
	// coalesce: running the action twice back to back at a vertex leaves what
	// one run leaves, so a requested re-run may be merged into one that has
	// not started yet (PlanOptions.Coalesce). Set by markIdempotent.
	coalesce bool
}

// compiler holds per-pattern compile state.
type compiler struct {
	opts PlanOptions
	// canonical access registry.
	canon map[string]*Access
	order []*Access
	// foldCache unifies structurally identical folded subexpressions of
	// the condition being planned so the test and the rhs share one
	// temporary (required for the atomic relax-shape detection).
	foldCache map[string]tempRef
}

// compileAction analyzes and plans one action.
func compileAction(a *Action, id int, opts PlanOptions) (*compiledAction, error) {
	if len(a.Conds) == 0 {
		return nil, fmt.Errorf("pattern %s: action %s has no conditions", a.pat.Name, a.Name)
	}
	if a.Conds[0].Elif {
		return nil, fmt.Errorf("pattern %s: action %s starts with an else-if", a.pat.Name, a.Name)
	}
	c := &compiler{opts: opts, canon: map[string]*Access{}}
	ca := &compiledAction{action: a, id: id}

	// Canonicalize all expressions and mods.
	for ci := range a.Conds {
		cond := &a.Conds[ci]
		if len(cond.Mods) == 0 {
			return nil, fmt.Errorf("action %s condition %d guards no modifications", a.Name, ci)
		}
		if cond.Test != nil {
			cond.Test = c.canonExpr(cond.Test)
		}
		for mi := range cond.Mods {
			m := &cond.Mods[mi]
			m.Target = c.canonAccess(m.Target)
			m.Rhs = c.canonExpr(m.Rhs)
			if err := validateMod(a, m); err != nil {
				return nil, err
			}
		}
	}
	ca.accesses = c.order
	ca.nSlots = len(c.order)

	// Validate accesses against the generator and kinds.
	for _, acc := range ca.accesses {
		if err := validateAccess(a, acc); err != nil {
			return nil, err
		}
	}

	// §IV-C dependency detection: a modification fires the work hook when
	// its property is read anywhere in the action.
	readProps := map[*Prop]bool{}
	for ci := range a.Conds {
		cond := &a.Conds[ci]
		if cond.Test != nil {
			walkAccesses(cond.Test, func(x *Access) { readProps[x.Prop] = true })
		}
		for mi := range cond.Mods {
			walkAccesses(cond.Mods[mi].Rhs, func(x *Access) { readProps[x.Prop] = true })
			// Read-modify-write ops read the target too.
			if op := cond.Mods[mi].Op; op == OpAssignMin || op == OpAssignMax || op == OpAssignAdd {
				readProps[cond.Mods[mi].Target.Prop] = true
			}
			// The target's index being a gathered value is a read of
			// that property as well (already covered via canon
			// accesses when it appears in expressions; cover the
			// index chain explicitly).
			for l := cond.Mods[mi].Target.At; l.Kind == LocAccess; l = l.A.At {
				readProps[l.A.Prop] = true
			}
		}
	}
	for ci := range a.Conds {
		for mi := range a.Conds[ci].Mods {
			m := &a.Conds[ci].Mods[mi]
			m.firesDependency = readProps[m.Target.Prop]
		}
	}

	// Entry hop: all entry-local accesses used anywhere in the action.
	entryLoaded := map[*Access]bool{}
	for _, acc := range ca.accesses {
		if normalizeLoc(acc.At, a.Gen).Kind == LocV {
			ca.entry.loads = append(ca.entry.loads, acc)
			entryLoaded[acc] = true
		}
	}
	ca.entry.at = Loc{Kind: LocV}

	// Chain resolution for if/elif/else.
	ca.nextOnTrue = make([]int, len(a.Conds))
	ca.nextOnFalse = make([]int, len(a.Conds))
	for ci := range a.Conds {
		ca.nextOnTrue[ci] = -1
		for j := ci + 1; j < len(a.Conds); j++ {
			if !a.Conds[j].Elif {
				ca.nextOnTrue[ci] = j
				break
			}
		}
		if ci+1 < len(a.Conds) {
			ca.nextOnFalse[ci] = ci + 1
		} else {
			ca.nextOnFalse[ci] = -1
		}
	}

	// Plan every condition in order (gather elision across conditions,
	// §IV-A). Elision is path-sensitive: sure[ci] holds the accesses loaded
	// on every path into condition ci, and only those are reused. Every
	// predecessor of a condition comes before it, so sure[ci] is complete
	// when ci is planned.
	sure := make([]map[*Access]bool, len(a.Conds))
	sure[0] = entryLoaded
	meet := func(j int, out map[*Access]bool) {
		if j < 0 {
			return
		}
		if sure[j] == nil {
			sure[j] = out
			return
		}
		for acc := range sure[j] {
			if !out[acc] {
				delete(sure[j], acc)
			}
		}
	}
	ca.conds = make([]condPlan, len(a.Conds))
	for ci := range a.Conds {
		loaded := maps.Clone(sure[ci])
		cp, err := c.planCond(a, &a.Conds[ci], loaded, ca)
		if err != nil {
			return nil, err
		}
		ca.conds[ci] = cp
		onTrue, onFalse := cp.exitLoads(sure[ci], a.Gen)
		meet(ca.nextOnTrue[ci], onTrue)
		meet(ca.nextOnFalse[ci], onFalse)
	}
	if ca.nSlots > MaxSlots {
		return nil, fmt.Errorf("action %s needs %d payload slots (max %d)", a.Name, ca.nSlots, MaxSlots)
	}
	if err := ca.carrySets(); err != nil {
		return nil, err
	}
	if opts.Coalesce {
		markIdempotent(ca)
	}
	return ca, nil
}

func validateAccess(a *Action, acc *Access) error {
	l := acc.At
	switch l.Kind {
	case LocU:
		if a.Gen.Kind != GenAdj && a.Gen.Kind != GenPropSet {
			return fmt.Errorf("action %s: access %s uses the generated vertex but the generator is %v", a.Name, acc, a.Gen.Kind)
		}
	case LocTrg, LocSrc, LocE:
		if a.Gen.Kind != GenOutEdges && a.Gen.Kind != GenInEdges {
			return fmt.Errorf("action %s: access %s uses the generated edge but the generator is %v", a.Name, acc, a.Gen.Kind)
		}
	case LocAccess:
		if l.A.Prop.Kind == VertexSetProp {
			return fmt.Errorf("action %s: access %s indexes with a set-valued property", a.Name, acc)
		}
	}
	return nil
}

func validateMod(a *Action, m *Mod) error {
	switch m.Op {
	case OpInsert:
		if m.Target.Prop.Kind != VertexSetProp {
			return fmt.Errorf("action %s: insert into non-set property %s", a.Name, m.Target.Prop.Name)
		}
		switch m.Rhs.(type) {
		case VertexVal, AccessExpr:
		default:
			return fmt.Errorf("action %s: insert argument must be a vertex (generator value or property access)", a.Name)
		}
	default:
		if m.Target.Prop.Kind == VertexSetProp {
			return fmt.Errorf("action %s: word assignment to set property %s", a.Name, m.Target.Prop.Name)
		}
	}
	if m.Target.Prop.Kind == EdgeWordProp && a.Gen.Kind == GenInEdges {
		// In-edge slots are read-only mirrors of the canonical
		// out-edge copies (bidirectional storage, §III-A).
		return fmt.Errorf("action %s: edge property %s cannot be modified through in-edges (mirrors are read-only)",
			a.Name, m.Target.Prop.Name)
	}
	return nil
}

// canonAccess unifies structurally equal accesses and assigns slots.
func (c *compiler) canonAccess(a *Access) *Access {
	// Canonicalize the index chain first.
	if a.At.Kind == LocAccess {
		a.At.A = c.canonAccess(a.At.A)
	}
	k := accessKey(a)
	if got, ok := c.canon[k]; ok {
		return got
	}
	a.slot = len(c.order)
	c.canon[k] = a
	c.order = append(c.order, a)
	return a
}

func (c *compiler) canonExpr(e Expr) Expr {
	switch x := e.(type) {
	case AccessExpr:
		if x.A.Prop.Kind == VertexSetProp {
			panic("pattern: set-valued property " + x.A.Prop.Name + " read as a word")
		}
		return AccessExpr{A: c.canonAccess(x.A)}
	case Bin:
		l, r := c.canonExpr(x.L), c.canonExpr(x.R)
		if lc, ok := l.(Const); ok {
			if rc, ok := r.(Const); ok {
				// Constant folding: evaluate at compile time so
				// constant subexpressions neither occupy payload
				// slots nor cost per-item evaluation. The value is the
				// engine's own: the closure it would run per item,
				// which reads nothing of the item it is not given.
				return Const{X: compileExpr(Bin{Op: x.Op, L: lc, R: rc})(nil)}
			}
		}
		return Bin{Op: x.Op, L: l, R: r}
	case NotExpr:
		in := c.canonExpr(x.X)
		if ic, ok := in.(Const); ok {
			if ic.X != 0 {
				return Const{X: 0}
			}
			return Const{X: 1}
		}
		return NotExpr{X: in}
	default:
		return e
	}
}

func walkAccesses(e Expr, fn func(*Access)) {
	switch x := e.(type) {
	case AccessExpr:
		fn(x.A)
		for l := x.A.At; l.Kind == LocAccess; l = l.A.At {
			fn(l.A)
		}
	case Bin:
		walkAccesses(x.L, fn)
		walkAccesses(x.R, fn)
	case NotExpr:
		walkAccesses(x.X, fn)
	case tempRef:
		walkAccesses(x.orig, fn)
	}
}

// planCond builds the message plan for one condition given the set of
// accesses gathered on every path into it.
func (c *compiler) planCond(a *Action, cond *Cond, loaded map[*Access]bool, ca *compiledAction) (condPlan, error) {
	c.foldCache = map[string]tempRef{}
	cp := condPlan{cond: cond, test: cond.Test}
	cp.modRhs = make([]Expr, len(cond.Mods))
	for i := range cond.Mods {
		cp.modRhs[i] = cond.Mods[i].Rhs
	}

	// Required accesses: reads of the test, reads of every rhs, and the
	// index chains of every modification target. The targets' own values
	// are read only by read-modify-write ops, at the modification site.
	need := map[*Access]bool{}
	addNeed := func(e Expr) {
		walkAccesses(e, func(x *Access) {
			if x.Prop.Kind != VertexSetProp {
				need[x] = true
			}
		})
	}
	if cond.Test != nil {
		addNeed(cond.Test)
	}
	for i := range cond.Mods {
		addNeed(cond.Mods[i].Rhs)
		for l := cond.Mods[i].Target.At; l.Kind == LocAccess; l = l.A.At {
			need[l.A] = true
			// And transitively what that index needs.
			addNeed(AccessExpr{A: l.A})
		}
	}

	// Group mods by consecutive normalized target locality (no reordering,
	// §IV-A).
	var groups []modGroup
	for i := range cond.Mods {
		tl := normalizeLoc(cond.Mods[i].Target.At, a.Gen)
		if len(groups) > 0 && locKey(groups[len(groups)-1].at) == locKey(tl) {
			groups[len(groups)-1].mods = append(groups[len(groups)-1].mods, i)
		} else {
			groups = append(groups, modGroup{at: tl, mods: []int{i}})
		}
	}
	finalLoc := groups[0].at

	// Pending remote accesses, grouped by normalized locality.
	var pend []*locGroup
	byKey := map[string]*locGroup{}
	for _, acc := range ca.accesses {
		if !need[acc] || loaded[acc] {
			continue
		}
		nl := normalizeLoc(acc.At, a.Gen)
		if nl.Kind == LocV {
			// Entry-local and not loaded can only happen for
			// accesses discovered after entry planning; entry loads
			// the union up front, so this indicates a bug.
			return cp, fmt.Errorf("internal: entry-local access %s not preloaded", acc)
		}
		k := locKey(nl)
		g, ok := byKey[k]
		if !ok {
			g = &locGroup{key: k, at: nl}
			byKey[k] = g
			pend = append(pend, g)
		}
		g.accs = append(g.accs, acc)
	}

	// The eval hop executes at finalLoc. Loads at finalLoc are deferred to
	// the eval hop unless another pending access depends on them. This
	// deferral (and the target-last hop ordering below) is the §IV-A
	// merge optimization; the unmerged baseline gathers every read in
	// plain dependency order and ships modifications separately.
	finalKey := locKey(finalLoc)
	if !c.opts.Merge {
		finalKey = ""
	}
	var deferred []*Access
	if g, ok := byKey[finalKey]; c.opts.Merge && ok {
		dependedOn := func(acc *Access) bool {
			for _, other := range ca.accesses {
				if need[other] && other.At.Kind == LocAccess && other.At.A == acc {
					return true
				}
			}
			return false
		}
		var keep []*Access
		for _, acc := range g.accs {
			if dependedOn(acc) {
				keep = append(keep, acc)
			} else {
				deferred = append(deferred, acc)
			}
		}
		if len(keep) == 0 {
			// Remove the group entirely; eval hop covers it.
			var np []*locGroup
			for _, g2 := range pend {
				if g2.key != finalKey {
					np = append(np, g2)
				}
			}
			pend = np
			delete(byKey, finalKey)
		} else {
			g.accs = keep
		}
	}

	// Topologically order the gather hops: a hop depends on the hop (or
	// entry/previous conds) that loads its locality's defining access.
	hops, err := orderHops(pend, loaded, a, c.opts, finalKey)
	if err != nil {
		return cp, fmt.Errorf("action %s: %v", a.Name, err)
	}

	if c.opts.Merge {
		// Eval hop at the first modification group's locality. Reads
		// of the modified properties at that vertex are (re)loaded
		// there, under synchronization — the paper's same-vertex
		// consistency guarantee (§III-C, §IV-A).
		evalHop := hop{at: finalLoc, loads: deferred}
		tprops := map[*Prop]bool{}
		for _, mi := range groups[0].mods {
			tprops[cond.Mods[mi].Target.Prop] = true
		}
		inEval := map[*Access]bool{}
		for _, acc := range deferred {
			inEval[acc] = true
		}
		for _, acc := range ca.accesses {
			if need[acc] && !inEval[acc] && tprops[acc.Prop] &&
				locKey(normalizeLoc(acc.At, a.Gen)) == locKey(finalLoc) {
				evalHop.loads = append(evalHop.loads, acc)
			}
		}
		hops = append(hops, evalHop)
		cp.mergedMods = groups[0].mods
		cp.tailGroups = append(cp.tailGroups, groups[1:]...)
	} else {
		// Unmerged: evaluate at the last gather hop and ship every
		// modification group as a separate message (§IV-A's
		// non-merged scheme).
		if len(hops) == 0 {
			// Everything entry-local: evaluate at v.
			hops = append(hops, hop{at: Loc{Kind: LocV}})
		}
		cp.tailGroups = groups
	}
	cp.hops = hops

	// Mark the gathered accesses as loaded for later conditions.
	for _, h := range hops {
		for _, acc := range h.loads {
			loaded[acc] = true
		}
	}

	// Availability before the eval hop (drives folding and early exit).
	availBefore := map[*Access]bool{}
	for acc := range loaded {
		availBefore[acc] = true
	}
	// Accesses loaded at the eval hop itself are not available early.
	for _, acc := range hops[len(hops)-1].loads {
		delete(availBefore, acc)
	}

	// Folding (Fig. 6): rewrite test/rhs subexpressions whose inputs are
	// all available before the eval hop.
	if c.opts.Fold {
		foldAt := len(hops) - 2 // -1 means entry hop
		if cp.test != nil {
			cp.test = c.foldExpr(cp.test, availBefore, ca, &hops, foldAt, &cp)
		}
		for i := range cp.modRhs {
			if cond.Mods[i].Op != OpInsert {
				cp.modRhs[i] = c.foldExpr(cp.modRhs[i], availBefore, ca, &hops, foldAt, &cp)
			}
		}
		cp.hops = hops
	}

	// Early exit: hoist the test conjuncts decidable before the eval hop
	// into preTest, evaluated before the eval message is sent.
	if c.opts.EarlyExit && cp.test != nil {
		var pre, rest []Expr
		for _, conj := range flattenAnd(cp.test) {
			if foldable(conj, availBefore) {
				pre = append(pre, conj)
			} else {
				rest = append(rest, conj)
			}
		}
		if len(pre) > 0 {
			cp.preTest = joinAnd(pre)
			cp.test = joinAnd(rest) // nil when everything is decidable early
		}
	}

	// Synchronization classification (§IV-B).
	cp.sync = classifySync(&cp, cond)
	if c.opts.Direct {
		markDirect(&cp)
	}
	if c.opts.Filter {
		markFilter(&cp, availBefore)
	}
	return cp, nil
}

// locGroup is a set of pending accesses sharing one normalized locality.
type locGroup struct {
	key  string
	at   Loc
	accs []*Access
}

// orderHops sequences gather hops. Direct mode: topological order with the
// final locality's ancestors visited last and siblings visited back-to-back
// (direct jumps). NaiveDFS mode: depth-first traversal of the dependency
// tree with explicit backtracking hops (Fig. 5's unoptimized traversal).
func orderHops(pend []*locGroup, loaded map[*Access]bool, a *Action, opts PlanOptions, finalKey string) ([]hop, error) {
	// depOf returns the key of the group that loads g's defining access
	// ("" when g's address is known from entry context or earlier conds).
	depOf := func(g *locGroup) string {
		if g.at.Kind != LocAccess {
			return ""
		}
		if loaded[g.at.A] {
			return ""
		}
		return locKey(normalizeLoc(g.at.A.At, a.Gen))
	}
	byKey := map[string]*locGroup{}
	for _, g := range pend {
		byKey[g.key] = g
	}

	// Ancestors of the final locality: the chain of groups that load the
	// addresses leading to the eval site. They are visited last so the
	// route ends next to the eval hop.
	isFinalAncestor := map[string]bool{}
	if fg, ok := byKey[finalKey]; ok {
		for cur := fg; ; {
			isFinalAncestor[cur.key] = true
			dk := depOf(cur)
			if dk == "" {
				break
			}
			next, ok := byKey[dk]
			if !ok {
				break
			}
			cur = next
		}
	}

	if !opts.NaiveDFS {
		var out []hop
		done := map[string]bool{}
		visiting := map[string]bool{}
		var visit func(g *locGroup) error
		visit = func(g *locGroup) error {
			if done[g.key] {
				return nil
			}
			if visiting[g.key] {
				return fmt.Errorf("cyclic locality dependency at %s", g.key)
			}
			visiting[g.key] = true
			if dk := depOf(g); dk != "" {
				if dep, ok := byKey[dk]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
			visiting[g.key] = false
			done[g.key] = true
			out = append(out, hop{at: g.at, loads: g.accs})
			return nil
		}
		for _, g := range pend {
			if !isFinalAncestor[g.key] {
				if err := visit(g); err != nil {
					return nil, err
				}
			}
		}
		for _, g := range pend {
			if isFinalAncestor[g.key] {
				if err := visit(g); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}

	// Naive DFS: walk the dependency tree rooted at the entry vertex,
	// inserting a backtracking hop on every return to a parent before the
	// next sibling subtree.
	children := map[string][]*locGroup{}
	var roots []*locGroup
	for _, g := range pend {
		dk := depOf(g)
		if dk == "" || byKey[dk] == nil {
			roots = append(roots, g)
		} else {
			children[dk] = append(children[dk], g)
		}
	}
	orderKids := func(ks []*locGroup) []*locGroup {
		var head, tail []*locGroup
		for _, k := range ks {
			if isFinalAncestor[k.key] {
				tail = append(tail, k)
			} else {
				head = append(head, k)
			}
		}
		return append(head, tail...)
	}
	var naive []hop
	var dfs func(g *locGroup)
	dfs = func(g *locGroup) {
		naive = append(naive, hop{at: g.at, loads: g.accs})
		kids := orderKids(children[g.key])
		for i, k := range kids {
			dfs(k)
			if i < len(kids)-1 {
				naive = append(naive, hop{at: g.at}) // backtrack
			}
		}
	}
	roots = orderKids(roots)
	for i, g := range roots {
		if i > 0 {
			naive = append(naive, hop{at: Loc{Kind: LocV}}) // backtrack to v
		}
		dfs(g)
	}
	return naive, nil
}

// foldExpr rewrites e, replacing maximal subexpressions whose accesses are
// all available before the eval hop with temporaries computed at foldAt
// (hop index; -1 = entry hop).
func (c *compiler) foldExpr(e Expr, avail map[*Access]bool, ca *compiledAction, hops *[]hop, foldAt int, cp *condPlan) Expr {
	if foldable(e, avail) {
		switch e.(type) {
		case Const, AccessExpr, VertexVal, tempRef:
			return e // nothing saved by folding a leaf
		}
		if t, ok := c.foldCache[e.String()]; ok {
			return t
		}
		slot := ca.nSlots
		ca.nSlots++
		t := tempRef{slot: slot, orig: e}
		c.foldCache[e.String()] = t
		step := foldStep{expr: e, slot: slot}
		if foldAt < 0 {
			ca.entry.folds = append(ca.entry.folds, step)
		} else {
			(*hops)[foldAt].folds = append((*hops)[foldAt].folds, step)
		}
		return t
	}
	switch x := e.(type) {
	case Bin:
		return Bin{Op: x.Op, L: c.foldExpr(x.L, avail, ca, hops, foldAt, cp), R: c.foldExpr(x.R, avail, ca, hops, foldAt, cp)}
	case NotExpr:
		return NotExpr{X: c.foldExpr(x.X, avail, ca, hops, foldAt, cp)}
	default:
		return e
	}
}

// flattenAnd returns the operand list of a (possibly nested) top-level
// conjunction.
func flattenAnd(e Expr) []Expr {
	if b, ok := e.(Bin); ok && b.Op == OpAnd {
		return append(flattenAnd(b.L), flattenAnd(b.R)...)
	}
	return []Expr{e}
}

// joinAnd rebuilds a conjunction; nil for an empty operand list.
func joinAnd(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Bin{Op: OpAnd, L: out, R: e}
	}
	return out
}

func foldable(e Expr, avail map[*Access]bool) bool {
	ok := true
	walkAccesses(e, func(a *Access) {
		if !avail[a] {
			ok = false
		}
	})
	return ok
}

// classifySync decides atomic vs lock for the merged evaluation (§IV-B):
// atomic instructions when a single value is read and written (the SSSP
// relax shape), locking otherwise.
func classifySync(cp *condPlan, cond *Cond) atomicKind {
	if len(cp.mergedMods) != 1 {
		return syncLock
	}
	mi := cp.mergedMods[0]
	m := &cond.Mods[mi]
	if m.Target.Prop.Kind == EdgeWordProp {
		// The instructions act on vertex words and sets; an edge word is
		// updated under the lock map.
		return syncLock
	}
	evalLoads := cp.hops[len(cp.hops)-1].loads
	// All values read at the eval hop must be the target itself.
	for _, acc := range evalLoads {
		if acc != m.Target {
			return syncLock
		}
	}
	switch m.Op {
	case OpAssignMin:
		if cp.test == nil {
			return syncAtomicMin
		}
	case OpAssignMax:
		if cp.test == nil {
			return syncAtomicMax
		}
	case OpAssignAdd:
		if cp.test == nil {
			return syncAtomicAdd
		}
	case OpInsert:
		if cp.test == nil {
			return syncAtomicInsert
		}
	case OpAssign:
		// The canonical relax shape: if (rhs < target) target = rhs
		// (or the mirrored comparison) is an atomic min; the dual is
		// an atomic max.
		if b, ok := cp.test.(Bin); ok {
			tgt := func(e Expr) bool {
				ae, ok := e.(AccessExpr)
				return ok && ae.A == m.Target
			}
			same := func(e Expr) bool { return exprEqual(e, cp.modRhs[mi]) }
			switch {
			case b.Op == OpLt && same(b.L) && tgt(b.R):
				return syncAtomicMin
			case b.Op == OpGt && tgt(b.L) && same(b.R):
				return syncAtomicMin
			case b.Op == OpGt && same(b.L) && tgt(b.R):
				return syncAtomicMax
			case b.Op == OpLt && tgt(b.L) && same(b.R):
				return syncAtomicMax
			}
		}
	}
	return syncLock
}

func exprEqual(a, b Expr) bool { return a.String() == b.String() }

// markDirect sets hop.direct on the hops of cp that a co-resident sender may
// execute in place: gather hops, which only load words and fold them (the
// planner never schedules a set-valued load), and the eval hop when it
// synchronizes with one atomic instruction. An eval hop under the lock map
// touches several values in one critical section and stays a message, as do
// the tail modification groups (which are not hops).
func markDirect(cp *condPlan) {
	last := len(cp.hops) - 1
	for i := range cp.hops {
		cp.hops[i].direct = i < last || cp.sync != syncLock
	}
}

// markFilter sets cp.filter when the eval hop is a relaxation a sender can
// suppress: it synchronizes as one atomic min or max on a vertex word, no
// tail modification group follows it (a suppressed hop takes the false
// branch, which would skip them), and the value it offers is computable
// before the hop — so the sender holds exactly the word the owner would
// compare. Add accumulates (every message counts), insert and lock-
// synchronized hops are not one ordered word, and none of them is eligible.
func markFilter(cp *condPlan, availBefore map[*Access]bool) {
	if cp.sync != syncAtomicMin && cp.sync != syncAtomicMax {
		return
	}
	mi := cp.mergedMods[0]
	cp.filter = len(cp.tailGroups) == 0 &&
		cp.cond.Mods[mi].Target.Prop.Kind == VertexWordProp &&
		foldable(cp.modRhs[mi], availBefore)
}

// markIdempotent sets ca.coalesce when no modification of the action
// accumulates. Assign, min, max and insert write a function of the values the
// run read: a second run that reads the same values writes the same words
// again and changes nothing, so dropping a re-run request while another re-run
// of the vertex is still waiting to start is the legal schedule "both re-runs
// back to back, the second a no-op". `+=` adds on every run (PageRank's push
// counts each one), so an action with an add is never coalescible.
func markIdempotent(ca *compiledAction) {
	for ci := range ca.action.Conds {
		for mi := range ca.action.Conds[ci].Mods {
			if ca.action.Conds[ci].Mods[mi].Op == OpAssignAdd {
				return
			}
		}
	}
	ca.coalesce = true
}

// PlanInfo describes an action's compiled plan for tests and experiments.
type PlanInfo struct {
	Action string
	// Coalesced reports whether re-runs of the action requested through
	// SetWorkRerun are coalesced per vertex (PlanOptions.Coalesce and no `+=`
	// modification); false means one re-run per request.
	Coalesced bool
	Conds     []CondPlanInfo
}

// CondPlanInfo summarizes one condition's plan.
type CondPlanInfo struct {
	// GatherHops is the number of hops before the eval hop.
	GatherHops int
	// Messages is the worst-case per-item message count (hops plus tail
	// modification messages), assuming every hop changes vertex.
	Messages int
	// PayloadWords is the number of payload words the eval hop's message
	// carries (Fig. 6's per-message payload): the gathered and folded slots
	// some later step reads. Generator bindings it also carries, such as v,
	// are not counted; the destination is never carried. 0 when the eval hop
	// never travels.
	PayloadWords int
	// Sync names the synchronization used at the merged eval hop.
	Sync string
	// EarlyExit reports whether part of the test is evaluated before the
	// eval-hop message is sent.
	EarlyExit bool
	// Route lists hop localities in order.
	Route []string
	// Direct lists the hop localities marked direct-eligible
	// (PlanOptions.Direct): hops a co-resident sender executes in place
	// instead of sending.
	Direct []string
	// Filter is the eval hop's locality when the hop is filter-eligible
	// (PlanOptions.Filter), "" otherwise.
	Filter string
}

func (ca *compiledAction) info() PlanInfo {
	pi := PlanInfo{Action: ca.action.Name, Coalesced: ca.coalesce}
	for i := range ca.conds {
		cp := &ca.conds[i]
		ci := CondPlanInfo{
			GatherHops:   len(cp.hops) - 1,
			Messages:     cp.messages(),
			PayloadWords: bits.OnesCount32(uint32(cp.carry[len(cp.hops)-1] & slotBits)),
			Sync:         cp.sync.String(),
			EarlyExit:    cp.preTest != nil,
		}
		for _, h := range cp.hops {
			ci.Route = append(ci.Route, h.at.String())
			if h.direct {
				ci.Direct = append(ci.Direct, h.at.String())
			}
		}
		if cp.filter {
			ci.Filter = cp.hops[len(cp.hops)-1].at.String()
		}
		for _, g := range cp.tailGroups {
			ci.Route = append(ci.Route, "mod@"+g.at.String())
		}
		pi.Conds = append(pi.Conds, ci)
	}
	return pi
}

// String renders the plan compactly.
func (pi PlanInfo) String() string {
	var b strings.Builder
	rerun := "each"
	if pi.Coalesced {
		rerun = "coalesced"
	}
	fmt.Fprintf(&b, "action %s: rerun=%s\n", pi.Action, rerun)
	for i, c := range pi.Conds {
		direct := "-"
		if len(c.Direct) > 0 {
			direct = strings.Join(c.Direct, ",")
		}
		filter := "-"
		if c.Filter != "" {
			filter = c.Filter
		}
		fmt.Fprintf(&b, "  cond %d: msgs=%d payload=%d sync=%s route=%s direct=%s filter=%s\n",
			i, c.Messages, c.PayloadWords, c.Sync, strings.Join(c.Route, " -> "), direct, filter)
	}
	return b.String()
}
