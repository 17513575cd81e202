package am

import (
	"sync"

	"declpat/internal/obs"
)

// barrier is a reusable barrier for n participants (the rank main
// goroutines). It creates the happens-before edges the collectives rely on.
type barrier struct {
	n     int
	mu    sync.Mutex
	cv    *sync.Cond
	count int
	gen   uint64
	// poisoned permanently breaks the barrier: every current and future
	// Wait panics runAbort. The multi-process abort path uses it to unpark
	// rank mains when the fleet is going down — there is no generation in
	// which the missing participants would ever arrive.
	poisoned bool
}

// newBarrier creates a barrier for n participants.
func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cv = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait for the current
// generation. Panics runAbort once the barrier is poisoned.
func (b *barrier) Wait() {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		panic(runAbort{})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cv.Broadcast()
		return
	}
	for b.gen == gen && !b.poisoned {
		b.cv.Wait()
	}
	p := b.poisoned
	b.mu.Unlock()
	if p {
		panic(runAbort{})
	}
}

// poison breaks the barrier for good and wakes every waiter.
func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.mu.Unlock()
	b.cv.Broadcast()
}

// collectives holds the scratch space for rank collectives.
type collectives struct {
	vals []int64
}

func (c *collectives) init(n int) {
	c.vals = make([]int64, n)
}

// Barrier synchronizes all rank main goroutines. Collective: every rank must
// call it. Must not be called from message handlers or extra body threads.
// Time spent blocked here lands in the rank's barrier-phase histogram when
// WithTiming is set (the wait is the substrate's load-imbalance signal).
func (r *Rank) Barrier() {
	ph := r.Phase(obs.PhaseBarrier)
	if r.u.mp != nil {
		r.mpBarrier(PlainBarrier)
	} else {
		r.u.barrier.Wait()
	}
	ph.End()
}

// AllReduceInt64 reduces one int64 contribution per rank with op and returns
// the result on every rank. Collective. In multi-process mode the global
// vector is gathered over the control plane and folded locally, so the op
// (an arbitrary closure) never crosses the wire.
func (r *Rank) AllReduceInt64(x int64, op func(a, b int64) int64) int64 {
	u := r.u
	if u.mp != nil {
		vals := r.mpAllGather(x)
		acc := vals[0]
		for i := 1; i < u.cfg.Ranks; i++ {
			acc = op(acc, vals[i])
		}
		// Keep the shared scratch vector stable until every local rank has
		// folded it.
		u.mp.localBar.Wait()
		return acc
	}
	u.coll.vals[r.id] = x
	r.Barrier()
	acc := u.coll.vals[0]
	for i := 1; i < u.cfg.Ranks; i++ {
		acc = op(acc, u.coll.vals[i])
	}
	r.Barrier()
	return acc
}

// AllReduceSum returns the sum of every rank's contribution. Collective.
func (r *Rank) AllReduceSum(x int64) int64 {
	return r.AllReduceInt64(x, func(a, b int64) int64 { return a + b })
}

// AllReduceMin returns the minimum of every rank's contribution. Collective.
func (r *Rank) AllReduceMin(x int64) int64 {
	return r.AllReduceInt64(x, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// AllReduceMax returns the maximum of every rank's contribution. Collective.
func (r *Rank) AllReduceMax(x int64) int64 {
	return r.AllReduceInt64(x, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllReduceOr returns the logical OR of every rank's contribution.
// Collective. Used by the paper's `once` strategy to learn whether any rank
// performed a property-map modification.
func (r *Rank) AllReduceOr(x bool) bool {
	var v int64
	if x {
		v = 1
	}
	return r.AllReduceMax(v) != 0
}

// AllGatherInt64 gathers one contribution per rank; index i of the result is
// rank i's value. Collective.
func (r *Rank) AllGatherInt64(x int64) []int64 {
	u := r.u
	if u.mp != nil {
		vals := r.mpAllGather(x)
		out := make([]int64, u.cfg.Ranks)
		copy(out, vals)
		u.mp.localBar.Wait()
		return out
	}
	u.coll.vals[r.id] = x
	r.Barrier()
	out := make([]int64, u.cfg.Ranks)
	copy(out, u.coll.vals)
	r.Barrier()
	return out
}
