package pattern

import (
	"fmt"
	"sync"
	"sync/atomic"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pmap"
)

// patMsg is the engine's cursor: one item of an action's execution, holding
// the generator bindings and the gathered payload. It never leaves the rank;
// a hop that travels mails a hopMsg with the words its step carries
// (hop.go).
type patMsg struct {
	V      distgraph.Vertex
	U      distgraph.Vertex
	ES, ET distgraph.Vertex
	ESlot  uint32
	EIn    bool
	Vals   [MaxSlots]Word
}

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
	// dist and nv cache g's distribution and vertex count; site is dist's
	// (Owner, Local) pair as one call, for the per-hop owner lookup (prog.go).
	dist    distgraph.Distribution
	nv      int
	site    siteFn
	opts    PlanOptions
	msg     *am.MsgType[hopMsg]
	actions []*BoundAction
	// filters is the send-side filter state of every vertex-word map a bound
	// action writes (filter.go).
	filters map[*pmap.VertexWord]*filter
}

// NewEngine creates a pattern engine. lm provides §IV-B's lock map (used for
// multi-value conditions); opts selects the §IV planning optimizations.
func NewEngine(u *am.Universe, g *distgraph.Graph, lm *pmap.LockMap, opts PlanOptions) *Engine {
	e := &Engine{u: u, g: g, lm: lm, dist: g.Dist(), nv: g.NumVertices(), site: newSiteFn(g.Dist()), opts: opts,
		filters: map[*pmap.VertexWord]*filter{}}
	e.msg = am.RegisterBatch(u, "pattern-step", e.dispatchBatch).
		WithAddresser(func(m hopMsg) int { return g.Owner(m.Dest) })
	u.RegisterCheckpointer(e)
	return e
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *distgraph.Graph { return e.g }

// Universe returns the engine's universe.
func (e *Engine) Universe() *am.Universe { return e.u }

// MsgType exposes the engine's one message type, the fixed-layout hop message
// (for choosing a wire codec or configuring coalescing).
func (e *Engine) MsgType() *am.MsgType[hopMsg] { return e.msg }

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

// Bind compiles p's actions against the engine's plan options, resolves its
// property declarations to storage, and interprets each plan — once — into the
// program the engine runs (prog.go). Must be called before Universe.Run.
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
			prog:     compileProgram(ca, resolved, e.lm),
			modified: make([]atomic.Bool, e.u.Ranks()),
			st:       make([]obs.Shard, e.u.Ranks()),
			Stats:    newStats(e.u.Ranks()),
		}
		for rank := range ba.st {
			ba.st[rank] = ba.Stats.c.Shard(rank)
		}
		e.bindFilters(ba, resolved)
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
// counter families, one sample per action name (an action name bound more
// than once, by several patterns or Bind calls, is summed). Safe while the
// universe runs.
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
	eng *Engine
	ca  *compiledAction
	// prog is ca resolved against the bound storage: what the engine runs.
	prog *program
	// work is the hook SetWork installed; nil without one, or when pending
	// is the hook.
	work func(r *am.Rank, v distgraph.Vertex)
	// pending[rank][li] is the coalesced rerun hook's word for the vertex at
	// local index li of rank's shard (rerun.go); nil unless SetWorkRerun
	// installed the hook on a coalescible action.
	pending  [][]atomic.Uint32
	modified []atomic.Bool
	st       []obs.Shard // Stats' write side, one shard per rank
	Stats    Stats
}

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

// Invoke runs the action at v. If v is local the entry executes inline, as a
// run of its own whose sends are handed to am before Invoke returns; otherwise
// an entry message is sent. Must be called inside an epoch.
func (ba *BoundAction) Invoke(r *am.Rank, v distgraph.Vertex) {
	h := ba.entryMsg(v)
	if at := ba.eng.site(v); at.rank == r.ID() {
		c := ba.eng.cursor()
		ba.enter(r, c, v, at)
		ba.release(r, c)
		return
	}
	ba.eng.msg.Send(r, h)
}

// InvokeAsync enqueues the action at v through the messaging layer even when
// v is local, bounding stack depth; safe to call from work hooks.
func (ba *BoundAction) InvokeAsync(r *am.Rank, v distgraph.Vertex) {
	ba.eng.msg.Send(r, ba.entryMsg(v))
}

// entryMsg is the entry message of the action at v. A vertex outside the
// graph is refused here, with checkHop's message: its site can name a local
// index past the end of the owner's shard.
func (ba *BoundAction) entryMsg(v distgraph.Vertex) hopMsg {
	h := hopMsg{Action: int32(ba.ca.id), Hop: hopEntry, Dest: v}
	if int(v) >= ba.eng.nv {
		panic(ba.eng.noStep(&h))
	}
	return h
}

// dispatchBatch runs a delivered batch of engine messages, each checked first
// to address the bound program (a message that does not is a handler fault).
// A run of consecutive messages for the same action shares one cursor, and
// releasing it — once per run — counts the run, raises the modification flag
// and hands every send the run staged to am, before the batch counts as
// handled.
func (e *Engine) dispatchBatch(r *am.Rank, b []hopMsg) {
	var ba *BoundAction
	var c *cursor
	for i := range b {
		m := &b[i]
		at, err := e.checkHop(r.ID(), m)
		if err != nil {
			panic(err)
		}
		if next := e.actions[m.Action]; next != ba {
			if c != nil {
				ba.release(r, c)
			}
			ba, c = next, e.cursor()
		}
		switch m.Hop {
		case hopEntry:
			ba.enter(r, c, m.Dest, at)
		case hopFire:
			c.n[sWorkItems]++
			ba.runHook(r, c, m.Dest, at)
		default:
			// The sender already evaluated the condition's early-exit test.
			ci, hi := int(m.Cond), int(m.Hop)
			ba.prog.unpack(&ba.prog.conds[ci].steps[hi], m, &c.m)
			ba.run(r, c, ci, hi, true)
		}
	}
	if c != nil {
		ba.release(r, c)
	}
}

// site is the resolved storage address of a hop's locality vertex: the rank
// that owns it and its index in that rank's shards. The engine resolves it
// once per hop and addresses the vertex-word maps by index. rank is this
// rank, or — on a directly applied hop — a co-resident one.
type site struct {
	rank, li int
}

// cursor is the state of one run of the bound program — the messages of a
// delivered batch that address one action, or an entry a body invokes: the
// item being executed, the Stats the run has counted so far, and the sends it
// has made, staged by destination rank. m holds the generator bindings and the
// payload words; a mailed hop packs the words its step carries out of it.
// release adds n to the rank's shard and hands the staged sends to am with one
// SendAll per destination, so the counters are exact whenever nothing is
// running, and every send is in am before the batch that made it counts as
// handled — at every epoch end in particular.
//
// Expression closures take the cursor's message by pointer, so a cursor
// declared on the stack would escape to the heap once per run; the pool keeps
// the item path allocation-free.
type cursor struct {
	m   patMsg
	n   [numStats]int64
	out [][]hopMsg // staged sends, by destination rank
}

var cursorPool = sync.Pool{New: func() any { return new(cursor) }}

// cursor takes a cursor from the pool with a staging run for each rank.
func (e *Engine) cursor() *cursor {
	c := cursorPool.Get().(*cursor)
	if n := e.u.Ranks(); len(c.out) < n {
		c.out = make([][]hopMsg, n)
	}
	return c
}

// send stages h for dest, to be handed to am when c is released.
func (c *cursor) send(dest int, h hopMsg) {
	c.out[dest] = append(c.out[dest], h)
}

// release hands c's staged sends to am, adds c's counts to r's shard, raises
// the rank's modification flag if the run changed anything, and returns c to
// the pool.
func (ba *BoundAction) release(r *am.Rank, c *cursor) {
	for dest, run := range c.out {
		if len(run) != 0 {
			ba.eng.msg.SendAll(r, dest, run)
			c.out[dest] = run[:0]
		}
	}
	if c.n[sModsChanged] != 0 {
		// The ranks' flags share a cache line: raise it once, then only read.
		if f := &ba.modified[r.ID()]; !f.Load() {
			f.Store(true)
		}
	}
	st := ba.st[r.ID()]
	for id, d := range c.n {
		if d != 0 {
			st.Add(id, d)
			c.n[id] = 0
		}
	}
	cursorPool.Put(c)
}

// enter executes the generator at v, which this rank owns (resolved to at),
// and runs every generated item through the condition chain in c: one loop
// for a loop-shaped action, item by item through run for any other. The items
// of one entry share the cursor: the generator rewrites only the bindings that
// differ from item to item.
func (ba *BoundAction) enter(r *am.Rank, c *cursor, v distgraph.Vertex, at site) {
	if ba.pending != nil {
		// This run reads v's values from here on: a change that lands later
		// must request a run of its own.
		ba.pending[at.rank][at.li].Store(0)
	}
	c.n[sInvocations]++
	p := ba.prog
	m := &c.m
	*m = patMsg{V: v, U: distgraph.NilVertex}
	lg := ba.eng.g.Local(at.rank)
	var nbrs []distgraph.Vertex // the generated neighbours
	var slot0 uint32            // the first generated edge's slot
	switch p.gen {
	case GenNone:
		ba.item(r, c, at)
		return
	case GenOutEdges:
		m.ES = v
		slot0 = lg.OutIndex[at.li]
		nbrs = lg.OutDst[slot0:lg.OutIndex[at.li+1]]
	case GenInEdges:
		if lg.InIndex == nil {
			panic("pattern: in_edges generator on a graph built without Bidirectional")
		}
		m.EIn, m.ET = true, v
		slot0 = lg.InIndex[at.li]
		nbrs = lg.InSrc[slot0:lg.InIndex[at.li+1]]
	case GenAdj:
		nbrs = lg.OutDst[lg.OutIndex[at.li]:lg.OutIndex[at.li+1]]
	case GenPropSet:
		nbrs = p.genSet.Members(at.rank, v)
	}
	if p.loop {
		ba.loop(r, c, at, nbrs, slot0)
		return
	}
	for i, w := range nbrs {
		p.bind(m, w, slot0+uint32(i))
		ba.item(r, c, at)
	}
}

// bind sets the bindings the generator varies from item to item: the far
// endpoint w of the generated edge at slot, or the generated vertex w.
func (p *program) bind(m *patMsg, w distgraph.Vertex, slot uint32) {
	switch p.gen {
	case GenOutEdges:
		m.ET, m.ESlot = w, slot
	case GenInEdges:
		m.ES, m.ESlot = w, slot
	default:
		m.U = w
	}
}

// loop runs the items of an entry of a loop-shaped action (program.loop),
// whose neighbours are nbrs, from slot0 on. An item is the entry gather, the
// early-exit test and the one atomic eval hop, at the neighbour itself; the
// loop makes run's decisions about that hop in run's order — refuse a vertex
// outside the graph; apply here, or directly in a co-resident owner's shard
// and fire; or answer false from the filter, or pack and stage — without
// run's step walk, and adds to c's counters once per entry. The entry loads
// stay per item: an earlier item (a self-loop) can change what a later one
// reads. The payload is not zeroed per item: every slot an item reads is one
// its own entry gather wrote (loopShape).
func (ba *BoundAction) loop(r *am.Rank, c *cursor, at site, nbrs []distgraph.Vertex, slot0 uint32) {
	e, p := ba.eng, ba.prog
	st := &p.conds[0].steps[0]
	m := &c.m
	rank := r.ID()
	var changed, unchanged, failed, direct, filtered int64
	for i, w := range nbrs {
		p.bind(m, w, slot0+uint32(i))
		p.entry.gather(m, at)
		if (st.pre != nil && st.pre(m) == 0) || int(w) >= e.nv { // NilVertex included
			failed++
			continue
		}
		wat := e.site(w)
		if wat.rank != rank {
			if !st.direct || !r.Coresident(wat.rank) {
				if f := st.filter; f != nil && f.kind != syncLock && !f.offer(r, w, st.mods[0].rhs(m)) {
					filtered++
					continue
				}
				h := hopMsg{Action: int32(ba.ca.id), Dest: w}
				st.pack(m, &h)
				c.send(wat.rank, h)
				continue
			}
			direct++
		}
		if !st.atomic(m, w, wat) {
			unchanged++
			continue
		}
		changed++
		if st.mods[0].fires {
			ba.fire(r, c, w, wat)
		}
	}
	c.n[sItems] += int64(len(nbrs))
	c.n[sTestsTrue] += changed
	c.n[sTestsFalse] += failed + filtered + unchanged
	c.n[sModsChanged] += changed
	c.n[sModsUnchanged] += unchanged
	c.n[sDirectHops] += direct
	c.n[sFilteredHops] += filtered
}

// item runs the entry step (at v, resolved to at) for the item the generator
// just bound in c and drives it through the condition chain. The payload is
// zeroed first — all of it, a handful of constant-size stores — so a slot the
// item never writes reads zero whatever the cursor's previous item left there,
// as it does in a cursor unpacked from a hop message.
func (ba *BoundAction) item(r *am.Rank, c *cursor, at site) {
	c.n[sItems]++
	c.m.Vals = [MaxSlots]Word{}
	ba.prog.entry.gather(&c.m, at)
	ba.run(r, c, 0, 0, false)
}

// run drives c's item from step hi of condition ci to the end of the
// condition chain, or to the first step that has to travel. A step whose
// locality vertex this rank owns executes inline. So does a direct step
// (PlanOptions.Direct) whose owner is co-resident: this thread performs its
// single-word operation against the owner's shard and carries on here. Any
// other step is staged in c for its owner as one message — unless it is a
// filtered eval hop that cannot beat what this rank already sent the vertex,
// which is answered false here (filter.go). A mailed step packs only its
// carried words (hop.go). resumed: the position arrived in a message, whose
// sender has checked the step's early-exit test already.
func (ba *BoundAction) run(r *am.Rank, c *cursor, ci, hi int, resumed bool) {
	e := ba.eng
	m := &c.m
	rank := r.ID()
	for ci >= 0 {
		pc := &ba.prog.conds[ci]
		if hi == len(pc.steps) {
			// Condition complete (true path): next if-group.
			ci, hi = pc.nextTrue, 0
			continue
		}
		st := &pc.steps[hi]
		// Early exit: the pre-decidable conjuncts are evaluated before the
		// eval-hop message is sent.
		if st.pre != nil && !resumed && st.pre(m) == 0 {
			c.n[sTestsFalse]++
			ci, hi = pc.nextFalse, 0
			continue
		}
		resumed = false
		dest := st.at.vertex(m)
		if dest == distgraph.NilVertex || int(dest) >= e.nv {
			// A NIL pointer (or an out-of-range word used as a vertex) in
			// the locality chain: the condition cannot be evaluated; treat
			// it as false.
			c.n[sTestsFalse]++
			ci, hi = pc.nextFalse, 0
			continue
		}
		at := e.site(dest)
		if at.rank != rank {
			if !st.direct || !r.Coresident(at.rank) {
				if f := st.filter; f != nil && f.kind != syncLock && !f.offer(r, dest, st.mods[0].rhs(m)) {
					c.n[sFilteredHops]++
					c.n[sTestsFalse]++
					ci, hi = pc.nextFalse, 0
					continue
				}
				h := hopMsg{Action: int32(ba.ca.id), Cond: int16(ci), Hop: int16(hi), Dest: dest}
				st.pack(m, &h)
				c.send(at.rank, h)
				return
			}
			c.n[sDirectHops]++
		}
		held := true
		switch st.kind {
		case stepGather:
			st.gather(m, at)
		case stepAtomic:
			// The condition's outcome is whether the update moved the value
			// (for the detected relax shape: whether it improved it).
			if held = st.atomic(m, dest, at); held {
				c.n[sModsChanged]++
				c.n[sTestsTrue]++
				if st.mods[0].fires {
					ba.fire(r, c, dest, at)
				}
			} else {
				c.n[sModsUnchanged]++
				c.n[sTestsFalse]++
			}
		case stepLock, stepTail:
			held = ba.locked(r, c, st, dest, at)
		}
		if held {
			hi++
		} else {
			ci, hi = pc.nextFalse, 0
		}
	}
}

// locked holds dest's lock (on this rank, dest's owner) around st's
// modification group, then runs the work hook once per changed modification
// whose property the action reads. For an eval hop (stepLock) the hop's loads
// and the condition test come first, in the same critical section (§IV-B), and
// a false test applies nothing. It reports whether the group was applied.
func (ba *BoundAction) locked(r *am.Rank, c *cursor, st *progStep, dest distgraph.Vertex, at site) bool {
	m := &c.m
	fired := 0
	held := true
	ba.eng.lm.With(at.rank, dest, func() {
		if st.kind == stepLock {
			st.gather(m, at)
			if held = st.test == nil || st.test(m) != 0; !held {
				c.n[sTestsFalse]++
				return
			}
			c.n[sTestsTrue]++
		}
		for i := range st.mods {
			mod := &st.mods[i]
			if !mod.apply(m, dest, at) {
				c.n[sModsUnchanged]++
				continue
			}
			c.n[sModsChanged]++
			if mod.fires {
				fired++
			}
		}
	})
	for ; fired > 0; fired-- {
		c.n[sWorkItems]++
		ba.runHook(r, c, dest, at)
	}
	return held
}

// fire runs the dependency work hook for v, whose value this rank just
// changed in the shard of at.rank. A hook function belongs to the owning rank
// (it files v into that rank's buckets), so after a direct application it
// travels as a hopFire message — the only message a directly applied hop ever
// costs, and only when it carried news. A coalesced rerun hook is a word in
// the owner's memory and an entry message: this thread requests the re-run
// itself, and the firing is counted where it happened. Both messages are
// staged in c.
func (ba *BoundAction) fire(r *am.Rank, c *cursor, v distgraph.Vertex, at site) {
	switch {
	case ba.pending != nil:
		c.n[sWorkItems]++
		ba.requestRerun(c, v, at)
	case at.rank == r.ID() || ba.work == nil:
		c.n[sWorkItems]++
		ba.runHook(r, c, v, at)
	default:
		c.send(at.rank, hopMsg{Action: int32(ba.ca.id), Hop: hopFire, Dest: v})
	}
}

// runHook runs the work hook, if one is installed, at v, resolved to at, from
// a run on c: a coalesced re-run request is staged in c.
func (ba *BoundAction) runHook(r *am.Rank, c *cursor, v distgraph.Vertex, at site) {
	switch {
	case ba.pending != nil:
		ba.requestRerun(c, v, at)
	case ba.work != nil:
		ba.work(r, v)
	}
}
