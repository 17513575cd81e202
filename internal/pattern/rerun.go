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
// entry clears the word before it reads anything. All the steps are
// sequentially consistent atomics, in the orders
//
//	firing:  write value  →  test-and-set word
//	entry:   load word  →  clear word if set  →  read values
//
// so a firing that loses the word lost it to a set whose entry has not yet
// cleared it, and that entry's reads come after the loser's write. The entry
// is staged in the winner's cursor and mailed when that run is released
// (engine.go), so until it starts it is staged or in flight; either way it
// starts after the loser's write. An entry whose load finds the word clear
// skips the store, and the load orders like the store it stands in for: a
// firing whose test-and-set follows the load is one of the two above, a
// winner that mails its own entry or a loser to a later set; a set before the
// load was already cleared by another entry, whose reads follow its clear.
//
// A word is set when it holds the current am epoch-attempt stamp (the
// cursor's), and clear when it holds anything else: an entry that finds it
// set stores 0, which no attempt's stamp is. The next epoch runs under a new
// stamp, so a word its predecessor left set reads clear without anyone
// touching it — the same rule that empties the send-side filter's tables. The
// words are 64 bits wide, like the stamp, so an old attempt's word never
// equals a later attempt's stamp.

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
	ba.work, ba.pending = nil, make([][]atomic.Uint64, dist.Ranks())
	for rank := range ba.pending {
		ba.pending[rank] = make([]atomic.Uint64, dist.LocalCount(rank))
	}
}

// requestRerun stages in c a re-run of the action at v — owned by at.rank,
// which is this rank or a co-resident one — unless one is already waiting to
// start.
func (ba *BoundAction) requestRerun(c *cursor, v distgraph.Vertex, at site) {
	// The load keeps a firing that will lose from taking the word's cache
	// line exclusively; it is ordered like the test-and-set it stands in for.
	// Co-resident ranks are in the same attempt, so c's stamp is at.rank's.
	p := &ba.pending[at.rank][at.li]
	if w := p.Load(); w != c.stamp && p.CompareAndSwap(w, c.stamp) {
		c.send(at.rank, hopMsg{Action: int32(ba.ca.id), Hop: hopEntry, Dest: v})
	}
}

// PendingReruns counts rank's vertices whose pending word is set, i.e. holds
// the rank's current epoch-attempt stamp. Between epochs it is 0: every word
// set in a committed attempt has an entry in flight that clears it, and an
// epoch ends only when nothing is in flight.
func (ba *BoundAction) PendingReruns(rank int) int {
	n := 0
	if ba.pending != nil {
		stamp := ba.eng.u.EpochAttempt(rank)
		for i := range ba.pending[rank] {
			if ba.pending[rank][i].Load() == stamp {
				n++
			}
		}
	}
	return n
}
