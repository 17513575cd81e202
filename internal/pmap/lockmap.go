package pmap

import (
	"fmt"
	"sync"

	"declpat/internal/distgraph"
)

// LockMap is the paper's lock-map abstraction (§IV-B): per-vertex
// synchronization for conditions that touch more than one property value at
// a vertex, parameterized by a locking scheme. Granularity g means one lock
// guards a block of g consecutive local vertices: g=1 is a lock per vertex
// (finest), larger g trades lock memory for contention.
type LockMap struct {
	dist        distgraph.Distribution
	granularity int
	locks       [][]sync.Mutex
}

// NewLockMap creates a lock map over dist with the given granularity
// (vertices per lock; minimum 1).
func NewLockMap(dist distgraph.Distribution, granularity int) *LockMap {
	if granularity < 1 {
		granularity = 1
	}
	lm := &LockMap{dist: dist, granularity: granularity, locks: make([][]sync.Mutex, dist.Ranks())}
	for r := range lm.locks {
		n := (dist.LocalCount(r) + granularity - 1) / granularity
		if n == 0 {
			n = 1
		}
		lm.locks[r] = make([]sync.Mutex, n)
	}
	return lm
}

func (lm *LockMap) lock(rank int, v distgraph.Vertex) *sync.Mutex {
	if lm.dist.Owner(v) != rank {
		panic(fmt.Sprintf("pmap: LockMap access to vertex %d on rank %d but owner is %d", v, rank, lm.dist.Owner(v)))
	}
	return &lm.locks[rank][lm.dist.Local(v)/lm.granularity]
}

// Lock acquires the lock guarding v on its owner rank.
func (lm *LockMap) Lock(rank int, v distgraph.Vertex) { lm.lock(rank, v).Lock() }

// Unlock releases the lock guarding v.
func (lm *LockMap) Unlock(rank int, v distgraph.Vertex) { lm.lock(rank, v).Unlock() }

// With runs fn while holding v's lock.
func (lm *LockMap) With(rank int, v distgraph.Vertex, fn func()) {
	l := lm.lock(rank, v)
	l.Lock()
	defer l.Unlock()
	fn()
}
