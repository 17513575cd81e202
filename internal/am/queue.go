package am

import (
	"sync"
	"sync/atomic"
)

// queue is an unbounded multi-producer multi-consumer FIFO of envelopes.
//
// Unboundedness matters: handlers send messages, and a bounded inbox could
// deadlock when all handler threads block sending into full inboxes. AM++
// avoids this with its own buffering; we use a growable ring.
type queue struct {
	mu     sync.Mutex
	nonEmp sync.Cond
	buf    []envelope
	head   int // index of first element
	n      int // number of elements
	peak   int // high-water mark of n (send-queue depth gauge)
	closed bool
	// polls counts the times a consumer looked at the queue: every TryPop,
	// and every Pop that returned (a consumer parked in Pop is not looking).
	// The reliable layer reads it to tell a receiver that was given the
	// chance to acknowledge from one whose goroutines never ran.
	polls atomic.Uint64
}

func newQueue() *queue {
	q := &queue{buf: make([]envelope, 64)}
	q.nonEmp.L = &q.mu
	return q
}

// Push appends e. It never blocks.
func (q *queue) Push(e envelope) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = e
	q.n++
	if q.n > q.peak {
		q.peak = q.n
	}
	q.mu.Unlock()
	q.nonEmp.Signal()
}

func (q *queue) grow() {
	nb := make([]envelope, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the oldest envelope, blocking until one is
// available or the queue is closed. ok is false iff the queue was closed and
// drained.
func (q *queue) Pop() (e envelope, ok bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	q.polls.Add(1)
	if q.n == 0 {
		q.mu.Unlock()
		return envelope{}, false
	}
	e = q.take()
	q.mu.Unlock()
	return e, true
}

// Await blocks until the queue is non-empty or closed, or done reports true.
// It takes nothing: the caller pops after it returns. done runs under the
// queue's lock, so a waker that makes it true and then calls Wake cannot slip
// between the check and the wait. A push wakes one blocked consumer (an Await
// or a Pop), and whichever it wakes takes the envelope.
func (q *queue) Await(done func() bool) {
	q.mu.Lock()
	for q.n == 0 && !q.closed && !done() {
		q.nonEmp.Wait()
	}
	q.mu.Unlock()
}

// Wake wakes every blocked consumer to re-check its condition. Taking the
// lock orders the caller's earlier state change before any re-check.
func (q *queue) Wake() {
	q.mu.Lock()
	q.mu.Unlock()
	q.nonEmp.Broadcast()
}

// TryPop removes and returns the oldest envelope without blocking.
func (q *queue) TryPop() (e envelope, ok bool) {
	q.mu.Lock()
	q.polls.Add(1)
	if q.n == 0 {
		q.mu.Unlock()
		return envelope{}, false
	}
	e = q.take()
	q.mu.Unlock()
	return e, true
}

func (q *queue) take() envelope {
	e := q.buf[q.head]
	q.buf[q.head] = envelope{} // release payload for GC
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return e
}

// DropAll discards every queued envelope (a crashed rank drops its inbox)
// and reports how many were dropped. Blocked consumers stay blocked.
func (q *queue) DropAll() int {
	q.mu.Lock()
	n := q.n
	for i := 0; i < n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = envelope{} // release payloads for GC
	}
	q.head, q.n = 0, 0
	q.mu.Unlock()
	return n
}

// Len reports the current number of queued envelopes.
func (q *queue) Len() int {
	q.mu.Lock()
	n := q.n
	q.mu.Unlock()
	return n
}

// Peak reports the queue's depth high-water mark.
func (q *queue) Peak() int {
	q.mu.Lock()
	p := q.peak
	q.mu.Unlock()
	return p
}

// Polls reports how many times a consumer has looked at the queue.
func (q *queue) Polls() uint64 { return q.polls.Load() }

// drainedBy returns the poll count at which an envelope pushed right now will
// have been taken: every poll of a non-empty queue takes one envelope, so
// that is one poll per envelope already queued, plus its own.
func (q *queue) drainedBy() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.polls.Load() + uint64(q.n) + 1
}

// Close wakes all blocked consumers; subsequent Pops drain and then report
// !ok.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmp.Broadcast()
}
