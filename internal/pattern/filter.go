package pattern

import (
	"math"
	"sync"
	"sync/atomic"

	"declpat/internal/distgraph"
	"declpat/internal/pmap"
)

// Send-side filter and in-place bounds (PlanOptions.Filter; DESIGN.md,
// "Plan-derived rules").
//
// A filter-eligible eval hop is `x[w] min= rhs` (or max=) with rhs known
// before the hop. While every writer of x moves it the same way, a value
// known to bound x[w] answers every later offer that cannot beat it: the
// offer would change nothing. The engine keeps two kinds of bound table per
// written map, one bound type serving both.
//
// Mailed hops (filterRank): within one epoch attempt every message a rank
// sends is delivered, so once a rank has offered w the value b, a later offer
// of rhs >= b cannot change x[w] — delivering it right after b's message is a
// legal schedule in which it is a no-op. Each sending rank remembers the best
// value it offered each vertex, and turns an offer that cannot beat it into
// the condition's false branch without sending anything (Stats.FilteredHops).
// The rank's body and handler threads share its table, so a handler thread's
// offers suppress the rank main's.
//
// Hops applied in place (localBounds) — a local target, or a Direct one in a
// co-resident owner's shard: an attempt that wrote w leaves x[w] at most its
// value, and a failed one at most the value it loaded, for the rest of the
// attempt. A run keeps those bounds in a table of its own and answers an
// attempt that cannot beat one as the failed attempt it would have been (one
// TestsFalse, one ModsUnchanged), without touching the shared word that
// another core may be writing. The table is asked before the hop's vertex is
// resolved: a bound is a fact about x[w] wherever w lives, and only a vertex
// some run applied in place has one. A table must have one writer, and a run
// is one goroutine's (Δ-stepping's body threads share a *Rank, not a run),
// so each rank has a few tables (boundSlot) and a run claims one for its
// duration; they are the engine's, allocated at first use, so no solve and
// no garbage collection allocates or drops one.
//
// Both are keyed on the engine's map, the epoch attempt and the map's write
// generation (pmap.VertexWord.Gen), which every out-of-band writer — Set,
// SetAt, Fill, RestoreRank — bumps: a table never outlives the attempt it
// describes, nor a write by user code that may have raised a word it bounds.
// Forgetting clears what the table recorded, never all of |V|.

// filter is that memory for one vertex-word map of one engine, shared by every
// bound action that writes the map.
type filter struct {
	// kind is the one monotone operation all of the map's writers perform
	// (syncAtomicMin or syncAtomicMax), or syncLock once two writers disagree
	// or one of them is not monotone — the argument above needs x[w] never to
	// move away from a bound already recorded, so the filter is then off for
	// the map. Settled by Bind, before Run.
	kind atomicKind
	// flip is 0 on the min side and -1 on the max side: a table holds
	// value^flip, so on either side a lower entry is a better bound and
	// noBound is "no bound yet".
	flip  Word
	vw    *pmap.VertexWord
	nv    int // vertices in the graph: the size of a table
	ranks []filterRank
}

// noBound is a table entry that bounds nothing: no flipped value is above it,
// and an offer of it could not change the map either.
const noBound = math.MaxInt64

// bounds is one table: best[v] is the best bound recorded for vertex v, as
// value^flip, or noBound. touched[:n] lists the vertices that have one, so
// forgetting clears those and not the whole table: it costs what the table
// recorded, not O(|V|) — Δ-stepping enters hundreds of epochs that each
// touch a few vertices.
type bounds struct {
	best    []int64
	touched []distgraph.Vertex
	n       int64
}

func (b *bounds) alloc(nv int) {
	b.best = make([]int64, nv)
	b.touched = make([]distgraph.Vertex, nv)
	for i := range b.best {
		b.best[i] = noBound
	}
}

// forget clears every recorded bound. No other thread is using the table.
func (b *bounds) forget() {
	for _, v := range b.touched[:atomic.LoadInt64(&b.n)] {
		atomic.StoreInt64(&b.best[v], noBound)
	}
	atomic.StoreInt64(&b.n, 0)
}

// filterRank is one sending rank's table of offers, used by all the rank's
// threads at once: entries and n change atomically.
type filterRank struct {
	mu    sync.Mutex // serializes the reset at the first offer of an attempt
	stamp atomic.Uint64
	// gen is the map's write generation the table's offers were recorded
	// under, or 0 once an offer came under a later one: x[v] may have risen
	// since an offer was recorded, so the rest of the attempt sends.
	gen atomic.Uint64
	t   bounds   // nil best until the rank's first offer
	_   [64]byte // keeps the next rank's table off the line t.n is on
}

// localBounds is a table of one run at a time, claimed with its slot
// (Engine.localBounds): entries and n change without atomics.
type localBounds struct {
	key  boundKey // nil f before the first use
	flip Word     // key.f.flip
	bounds
	// skipped counts the attempts answered from the table.
	skipped int64
}

// boundKey names what a local table describes: f's map, in the epoch
// attempt stamp, under the map's write generation gen.
type boundKey struct {
	f          *filter
	stamp, gen uint64
}

// boundSlots is the number of local tables per rank: enough for the rank
// main, its handler threads and body threads of the usual sizes to run at
// once. A run that finds none free applies its hops without one.
const boundSlots = 4

// boundSlot is one local table of a rank, owned by the run that holds busy.
type boundSlot struct {
	busy atomic.Bool
	lb   localBounds
	_    [64]byte // keeps the next slot's busy off this slot's lines
}

// writeKind classifies modification mi of cp for the monotone-writers rule.
func writeKind(cp *condPlan, mi int) atomicKind {
	if len(cp.mergedMods) == 1 && cp.mergedMods[0] == mi &&
		(cp.sync == syncAtomicMin || cp.sync == syncAtomicMax) {
		return cp.sync // includes the relax shape, an OpAssign under a comparison
	}
	switch cp.cond.Mods[mi].Op {
	case OpAssignMin:
		return syncAtomicMin
	case OpAssignMax:
		return syncAtomicMax
	}
	return syncLock
}

// bindFilters accounts ba's writes to vertex-word maps in the engine's filter
// table and attaches the filter of each filter-eligible condition. A write
// that breaks a map's monotone-writers rule turns the map's filter off for
// the actions bound earlier as well.
func (e *Engine) bindFilters(ba *BoundAction, binds map[*Prop]binding) {
	for ci := range ba.ca.conds {
		cp := &ba.ca.conds[ci]
		for mi := range cp.cond.Mods {
			vw := binds[cp.cond.Mods[mi].Target.Prop].vw
			if vw == nil {
				continue
			}
			kind := writeKind(cp, mi)
			f := e.filters[vw]
			if f == nil {
				f = &filter{kind: kind, vw: vw, nv: e.nv, ranks: make([]filterRank, e.u.Ranks())}
				if kind == syncAtomicMax {
					f.flip = -1
				}
				e.filters[vw] = f
			} else if f.kind != kind {
				f.kind = syncLock
			}
			if cp.filter && mi == cp.mergedMods[0] {
				ba.prog.conds[ci].evalHop().filter = f
			}
		}
	}
}

// filtered reports whether condition ci's eval hop is filtered.
func (ba *BoundAction) filtered(ci int) bool {
	return ba.prog.conds[ci].evalHop().on() != nil
}

// on returns the step's filter, or nil when the step has none or its map's is
// off.
func (st *progStep) on() *filter {
	if f := st.filter; f != nil && f.kind != syncLock {
		return f
	}
	return nil
}

// offer records that rank, in epoch attempt stamp and under the map's write
// generation gen, is about to send rhs to v's word and reports whether the
// message can still win; false means the rank already offered v a value at
// least as good. The rank's body and handler threads offer concurrently,
// hence the CAS.
func (f *filter) offer(rank int, stamp, gen uint64, v distgraph.Vertex, rhs Word) bool {
	fr := &f.ranks[rank]
	if fr.stamp.Load() != stamp {
		fr.reset(stamp, gen, f.nv)
	}
	// A run under an earlier generation may use the table: every offer in it
	// was recorded after the table's generation was read, so after the
	// writes that generation counts.
	if g := fr.gen.Load(); gen > g {
		if g != 0 {
			fr.gen.Store(0)
		}
		return true
	}
	k := rhs ^ f.flip
	p := &fr.t.best[v]
	for {
		cur := atomic.LoadInt64(p)
		if k >= cur {
			return false
		}
		if atomic.CompareAndSwapInt64(p, cur, k) {
			if cur == noBound { // v's first offer: exactly one thread replaces noBound
				fr.t.touched[atomic.AddInt64(&fr.t.n, 1)-1] = v
			}
			return true
		}
	}
}

// reset empties the table for epoch attempt at, whose first offer was made
// under generation gen. No thread of the rank is still offering under the old
// stamp (am advances the attempt only once every body and handler of the
// previous one has returned), so touched[:n] is complete. The stamp is
// published last: a thread that reads it sees the table behind it; one that
// still reads the old stamp waits here for the mutex.
func (fr *filterRank) reset(at, gen uint64, nv int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.stamp.Load() == at {
		return
	}
	if fr.t.best == nil {
		fr.t.alloc(nv)
	}
	fr.t.forget()
	fr.gen.Store(gen)
	fr.stamp.Store(at)
}

// bounds returns the table c holds if it has the key localBounds gives it,
// or nil: the per-hop check, which inlines.
func (c *cursor) bounds(f *filter, gen uint64) *localBounds {
	if s := c.slot; s != nil && s.lb.key == (boundKey{f, c.stamp, gen}) {
		return &s.lb
	}
	return nil
}

// localBounds returns c's local table for f's map, keyed on c's attempt and
// the map's generation gen: the one c holds, emptied first if it describes
// another key, or one of rank's slots claimed now; nil when every slot is
// held by another run.
func (e *Engine) localBounds(c *cursor, rank int, f *filter, gen uint64) *localBounds {
	k := boundKey{f, c.stamp, gen}
	s := c.slot
	if s == nil {
		for i := range e.slots[rank] {
			if t := &e.slots[rank][i]; !t.busy.Load() && t.busy.CompareAndSwap(false, true) {
				s = t
				break
			}
		}
		if s == nil {
			return nil
		}
		c.slot = s
	}
	lb := &s.lb
	if lb.key != k {
		if lb.best == nil {
			lb.alloc(e.nv)
		}
		lb.forget()
		lb.key, lb.flip = k, k.f.flip
	}
	return lb
}

// fails reports whether the table shows that an attempt of val at w would
// change nothing.
func (lb *localBounds) fails(val Word, w distgraph.Vertex) bool {
	return val^lb.flip >= lb.best[w]
}

// apply performs the filter's instruction with value val on w's word,
// resolved to at — an attempt the table could not answer — and records what
// it learned: val if the word changed, else the word's value since. It
// reports whether the word changed.
func (lb *localBounds) apply(val Word, w distgraph.Vertex, at site) bool {
	vw := lb.key.f.vw
	var changed bool
	if lb.key.f.kind == syncAtomicMin {
		changed = vw.MinAt(at.rank, at.li, val)
	} else {
		changed = vw.MaxAt(at.rank, at.li, val)
	}
	seen := val
	if !changed {
		seen = vw.GetAt(at.rank, at.li) // no worse than the value the attempt lost to
	}
	p := &lb.best[w]
	if *p == noBound {
		lb.touched[lb.n] = w
		lb.n++
	}
	*p = seen ^ lb.flip // at most val^flip: below *p
	return changed
}
