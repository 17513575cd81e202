package pattern

import (
	"sync/atomic"

	"declpat/internal/distgraph"
)

// Coalesced re-invocation (PlanOptions.Coalesce; DESIGN.md, "Coalesced
// re-invocation").
//
// The fixed_point strategy's hook `a.work(Vertex v) = { a(v) }` asks for one
// more run of a at v every time a value a reads at v changes. A run reads v's
// values when it starts, so of the runs requested before one of them starts,
// that one sees every change and the others find nothing new. A coalescible
// action (markIdempotent) therefore keeps one pending word per vertex, in the
// owner's memory: a firing mails an entry only if it wins the word, and the
// entry clears the word before it reads anything. All three steps are
// sequentially consistent atomics, in the orders
//
//	firing:  write value  →  test-and-set word
//	entry:   clear word   →  read values
//
// so a firing that loses the word lost it to a set whose entry has not yet
// cleared it, and that entry's reads come after the loser's write. The entry
// is staged in the winner's cursor and mailed when that run is released
// (engine.go), so until it starts it is staged or in flight; either way it
// starts after the loser's write.

// SetWorkRerun makes the action its own work hook: the paper's
// `a.work(Vertex v) = { a(v) }`, declared instead of spelled as a closure so
// the engine can coalesce it. On an action the planner marked coalescible a
// re-run of v is mailed only when none is waiting to start, and a co-resident
// rank that changed v in place requests it from its own thread (one entry
// message instead of hopFire plus the owner's self-send). On any other action
// every firing mails one re-run, as SetWork(a.InvokeAsync) would.
func (ba *BoundAction) SetWorkRerun() {
	if !ba.ca.coalesce {
		ba.SetWork(ba.InvokeAsync)
		return
	}
	dist := ba.eng.dist
	ba.work, ba.pending = nil, make([][]atomic.Uint32, dist.Ranks())
	for rank := range ba.pending {
		ba.pending[rank] = make([]atomic.Uint32, dist.LocalCount(rank))
	}
}

// requestRerun stages in c a re-run of the action at v — owned by at.rank,
// which is this rank or a co-resident one — unless one is already waiting to
// start.
func (ba *BoundAction) requestRerun(c *cursor, v distgraph.Vertex, at site) {
	// The load keeps a firing that will lose from taking the word's cache
	// line exclusively; it is ordered like the test-and-set it stands in for.
	if p := &ba.pending[at.rank][at.li]; p.Load() == 0 && p.CompareAndSwap(0, 1) {
		c.send(at.rank, hopMsg{Action: int32(ba.ca.id), Hop: hopEntry, Dest: v})
	}
}

// PendingReruns counts rank's vertices whose pending word is set. Between
// epochs it is 0: every set word has an entry in flight that clears it, and an
// epoch ends only when nothing is in flight.
func (ba *BoundAction) PendingReruns(rank int) int {
	n := 0
	if ba.pending != nil {
		for i := range ba.pending[rank] {
			if ba.pending[rank][i].Load() != 0 {
				n++
			}
		}
	}
	return n
}
