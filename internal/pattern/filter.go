package pattern

import (
	"math"
	"sync"
	"sync/atomic"

	"declpat/internal/am"
	"declpat/internal/distgraph"
)

// Send-side filter (PlanOptions.Filter; DESIGN.md, "Send-side filter").
//
// A filter-eligible eval hop is `x[w] min= rhs` (or max=) with rhs known at
// the sender. Within one epoch attempt every such message a rank sends is
// delivered, so once a rank has offered w the value b, a later offer of
// rhs >= b cannot change x[w]: delivering it right after b's message is a
// legal schedule of the relaxation, and in that schedule it is a no-op. The
// engine therefore remembers, per written map and sending rank, the best
// value offered to each vertex, and turns an offer that cannot beat it into
// the condition's false branch without sending anything.

// filter is that memory for one vertex-word map, shared by every bound action
// that writes the map.
type filter struct {
	// kind is the one monotone operation all of the map's writers perform
	// (syncAtomicMin or syncAtomicMax), or syncLock once two writers disagree
	// or one of them is not monotone — the argument above needs x[w] never to
	// move away from an offer already made, so the filter is then off for
	// the map. Settled by Bind, before Run.
	kind  atomicKind
	nv    int // vertices in the graph: the size of a rank's table
	ranks []filterRank
}

// filterRank is one sending rank's table: best[v] is the best value the rank
// has offered to vertex v during epoch attempt stamp, or the map's `none` when
// it has offered v nothing. touched[:n] lists the vertices that have an offer,
// so a new attempt clears those and not the whole table: forgetting costs
// what the last attempt sent, not O(|V|) — Δ-stepping enters hundreds of
// epochs that each send a few messages.
type filterRank struct {
	mu      sync.Mutex // serializes the reset at the first offer of an attempt
	stamp   atomic.Uint64
	best    []atomic.Int64 // nil until the rank's first offer
	touched []distgraph.Vertex
	n       atomic.Int64
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
				f = &filter{kind: kind, nv: e.nv, ranks: make([]filterRank, e.u.Ranks())}
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

// filtered reports whether condition ci's eval hop is filtered at the sender.
func (ba *BoundAction) filtered(ci int) bool {
	f := ba.prog.conds[ci].evalHop().filter
	return f != nil && f.kind != syncLock
}

// none is the table entry of a vertex that has been offered nothing: the
// value no offer can fail to beat, except an offer of none itself, which could
// not change the map either.
func (f *filter) none() int64 {
	if f.kind == syncAtomicMax {
		return math.MinInt64
	}
	return math.MaxInt64
}

// offer records that rank r is about to send rhs to v's word and reports
// whether the message can still win; false means r already offered v a value
// at least as good in this epoch attempt. The rank's body and handler threads
// offer concurrently, hence the CAS.
func (f *filter) offer(r *am.Rank, v distgraph.Vertex, rhs Word) bool {
	fr := &f.ranks[r.ID()]
	if at := r.EpochAttempt(); fr.stamp.Load() != at {
		fr.reset(at, f.none(), f.nv)
	}
	p := &fr.best[v]
	for {
		cur := p.Load()
		if (f.kind == syncAtomicMin && rhs >= cur) || (f.kind == syncAtomicMax && rhs <= cur) {
			return false
		}
		if p.CompareAndSwap(cur, rhs) {
			if cur == f.none() { // v's first offer: exactly one thread replaces none
				fr.touched[fr.n.Add(1)-1] = v
			}
			return true
		}
	}
}

// reset empties the table for epoch attempt at: nothing has been offered yet.
// No thread of the rank is still offering under the old stamp (am advances
// the attempt only once every body and handler of the previous one has
// returned), so touched[:n] is complete. The stamp is published last: a
// thread that reads it sees the table behind it; one that still reads the old
// stamp waits here for the mutex.
func (fr *filterRank) reset(at uint64, none int64, nv int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.stamp.Load() == at {
		return
	}
	if fr.best == nil {
		fr.best = make([]atomic.Int64, nv)
		fr.touched = make([]distgraph.Vertex, nv)
		for i := range fr.best {
			fr.best[i].Store(none)
		}
	}
	for _, v := range fr.touched[:fr.n.Load()] {
		fr.best[v].Store(none)
	}
	fr.n.Store(0)
	fr.stamp.Store(at)
}
