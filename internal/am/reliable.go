package am

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"declpat/internal/obs"
)

// Reliable-delivery layer (active when a fault plan is set: WithFaultPlan, or
// any socket transport).
//
// Sender side: each (dest, type) link assigns consecutive sequence numbers
// to shipped envelopes and keeps every envelope in an outstanding table
// until the receiver acknowledges it. Retransmission is poll-driven: a
// flushAll on the sending rank advances that rank's link tick (at most once
// per tick of the transport's clock) and retransmits overdue envelopes with
// exponential backoff. No goroutine retransmits: on a parking universe the
// retransmit clock only wakes the parked rank mains to poll, so nothing can
// send after Universe.Run's teardown (see the shutdown audit in universe.go).
//
// A rank's link to itself is not a network link: unless the plan injects
// link faults, ship hands such an envelope to the rank's own inbox
// unsequenced (seq 0), and none of this applies to it.
//
// Receiver side: each (src, type) link tracks the contiguous prefix of
// delivered sequence numbers plus a set of out-of-order arrivals (delay
// faults reorder envelopes). A duplicate — retransmit of a delivered
// envelope or a network duplicate — is suppressed before any handler runs
// and re-acknowledged, so user messages are handled exactly once and the
// termination detectors' counters (pending, sentC/recvC) are never
// double-counted.
//
// Epoch safety: both termination detectors additionally require every link
// to be quiet (no outstanding, no delayed envelopes — relPending == 0 on
// every rank), so an epoch ends only after every envelope it shipped has
// been delivered exactly once *and* acknowledged. The only traffic that can
// cross an epoch boundary is a redundant duplicate ack, whose handler is a
// no-op.

// ackTypeID marks acknowledgement envelopes in the inbox stream.
const ackTypeID int32 = -1

// ackBody is the payload of an acknowledgement envelope: the message type
// whose (src=receiver's view, seq) envelope is being acknowledged.
type ackBody struct {
	typ int32
}

// outEnvelope is one unacknowledged envelope held by the sender.
type outEnvelope struct {
	data     any      // the original []T batch; re-encoded per attempt
	lin      []uint64 // causal lineage per message, preserved across retransmits
	attempts int      // transmissions performed so far
	// charged counts the transmissions that count toward
	// FaultPlan.maxAttempts: those the destination rank had the chance to
	// answer, i.e. after which it polled its inbox more often than the inbox
	// held envelopes when the transmission was made (destPolls is the poll
	// count that proves it — see queue.drainedBy). On a backend whose
	// retransmit clock ticks per sender poll, a sender that spins while the
	// receiver's goroutines are descheduled, or still working through a long
	// inbox, would otherwise burn the whole budget before one ack could be
	// written; a link is dead when the receiver gets past everything it was
	// sent and still nothing comes back, which is how an injected DeadLink
	// behaves.
	charged   int
	destPolls uint64
	due       uint64
	sentNs    int64 // first-transmission timestamp (WithTiming ack RTT)
	// refs guards the batch against recycling while still reachable: the
	// outstanding table holds one reference and every in-flight
	// retransmission takes one more for the duration of its re-encode.
	// Whoever drops the count to zero owns the batch and returns it to the
	// type's pool: a sequenced envelope crosses its link as bytes, so the
	// receiver only ever sees a decoded copy and the ack proves the sender's
	// copy is dead.
	refs atomic.Int32
}

// release drops one reference to the outstanding batch and recycles it on
// the last drop (see refs).
func (o *outEnvelope) release(rec *msgType) {
	if o.refs.Add(-1) == 0 {
		rec.recycle(o.data)
	}
}

// delayedEnvelope is an envelope held back by the simulated network.
type delayedEnvelope struct {
	env envelope
	due uint64
}

// sendLink is one rank's sender-side state for one (dest, type) link.
type sendLink struct {
	mu      sync.Mutex
	nextSeq uint64
	out     map[uint64]*outEnvelope
	delayed []delayedEnvelope
}

// recvLink is one rank's receiver-side dedup window for one (src, type)
// link: every seq <= contig has been delivered, plus the out-of-order seqs
// in ahead. acks counts acknowledgements issued (the salt for ack-drop
// decisions, so each re-ack rolls an independent fault).
type recvLink struct {
	mu     sync.Mutex
	contig uint64
	ahead  map[uint64]struct{}
	acks   uint64
}

// initReliability allocates the per-rank link state. Called from Run once
// the type set is frozen, before the transport starts: the tables are never
// swapped afterwards, so requeueOutstanding, which runs on a transport
// goroutine, reads them without a lock.
func (r *Rank) initReliability(ntypes int) {
	n := r.u.cfg.Ranks
	r.send = make([][]sendLink, n)
	r.recv = make([][]recvLink, n)
	for i := 0; i < n; i++ {
		r.send[i] = make([]sendLink, ntypes)
		r.recv[i] = make([]recvLink, ntypes)
	}
}

// requeueOutstanding marks every unacknowledged envelope bound for dest due
// for immediate retransmission and returns how many it marked. Called by a
// socket backend right after a reconnect: frames written into the dead
// connection were lost exactly like dropped packets, and rather than wait
// out their (possibly deep) backoff the sender replays them through the
// normal retransmit path at the next poll. The attempt count resets too —
// the ceiling measures failures on a connection believed live, and a
// reconnect is proof the prior attempts went into a dead pipe, so each
// connection incarnation gets the full budget. Envelopes parked at the
// retransmit ceiling stay parked — the link-death fault has already been
// raised for them.
func (r *Rank) requeueOutstanding(dest int) int {
	if r.send == nil || dest < 0 || dest >= len(r.send) {
		return 0
	}
	n := 0
	for typ := range r.send[dest] {
		l := &r.send[dest][typ]
		l.mu.Lock()
		for _, o := range l.out {
			if o.due != ^uint64(0) {
				o.due = 0
				o.attempts = 0
				o.charged = 0
				n++
			}
		}
		l.mu.Unlock()
	}
	return n
}

// nextSeq assigns the next sequence number on (r → dest, typ) and records
// the batch as outstanding. The returned envelope carries a second reference
// for the caller's initial transmission, to be released once that has
// finished encoding: a sibling thread's retransmit can get the envelope
// acknowledged — and its batch recycled — before a descheduled initial
// transmission is done reading it.
func (r *Rank) nextSeq(dest int, typ int32, data any, lin []uint64) (uint64, *outEnvelope) {
	l := &r.send[dest][typ]
	o := &outEnvelope{
		data:      data,
		lin:       lin,
		destPolls: r.u.ranks[dest].inbox.drainedBy(),
	}
	o.refs.Store(2) // the outstanding table's (dropped by handleAck) + the initial transmission's
	if r.u.ackRTT != nil {
		o.sentNs = obs.Now()
	}
	l.mu.Lock()
	l.nextSeq++
	seq := l.nextSeq
	o.due = r.linkTick.Load() + r.u.backoffTicks(r.id, dest, int(typ), seq, 0)
	if l.out == nil {
		l.out = make(map[uint64]*outEnvelope)
	}
	l.out[seq] = o
	l.mu.Unlock()
	r.relAdd(1)
	return seq, o
}

// holdDelayed parks an envelope on the sending link until the rank's tick
// reaches due (the release happens in pollLinks).
func (r *Rank) holdDelayed(dest int, e envelope, due uint64) {
	l := &r.send[dest][e.typeID]
	l.mu.Lock()
	l.delayed = append(l.delayed, delayedEnvelope{env: e, due: due})
	l.mu.Unlock()
	r.relAdd(1)
}

// admit records (src, typ, seq) in the dedup window. It reports whether the
// envelope is fresh (false: duplicate, must be suppressed) and returns the
// ack salt to use when acknowledging it.
func (r *Rank) admit(src int, typ int32, seq uint64) (fresh bool, salt uint64) {
	l := &r.recv[src][typ]
	l.mu.Lock()
	defer l.mu.Unlock()
	salt = l.acks
	l.acks++
	if seq <= l.contig {
		return false, salt
	}
	if _, dup := l.ahead[seq]; dup {
		return false, salt
	}
	if l.ahead == nil {
		l.ahead = make(map[uint64]struct{})
	}
	l.ahead[seq] = struct{}{}
	for {
		if _, ok := l.ahead[l.contig+1]; !ok {
			break
		}
		delete(l.ahead, l.contig+1)
		l.contig++
	}
	return true, salt
}

// sendAck acknowledges envelope (src→r, typ, seq). Acks ride the same
// simulated network and are dropped with the plan's Drop probability; a
// lost ack is recovered by the sender's retransmit, which the receiver
// suppresses and re-acknowledges with a fresh salt.
func (r *Rank) sendAck(src int, typ int32, seq uint64, salt uint64) {
	u := r.u
	if u.linkDown(r.id, src) {
		// Acks ride the same links: a severed (r → src) direction starves
		// the peer's retransmit loop into declaring the link dead.
		r.st.Inc(cAcksDropped)
		u.trace(r.id, TraceDrop, int64(ackTypeID), int64(seq))
		return
	}
	if u.fp.roll(faultAckDrop, r.id, src, int(typ), seq, int(salt)) < u.fp.Drop {
		r.st.Inc(cAcksDropped)
		u.trace(r.id, TraceDrop, int64(ackTypeID), int64(seq))
		return
	}
	r.st.Inc(cAckMsgs)
	r.st.Add(cBytesSent, envelopeHeaderBytes)
	u.trace(r.id, TraceAck, int64(typ), int64(seq))
	u.push(r.id, src, envelope{
		typeID: ackTypeID, src: int32(r.id), seq: seq, data: ackBody{typ: typ},
	})
}

// handleAck clears the acknowledged envelope from the sender's outstanding
// table. Duplicate acks (re-acks of suppressed retransmits) are no-ops. On a
// parking universe the ack that takes this rank's count of unacknowledged
// envelopes to 0 checks for quiescence (relAdd → settle): the receiver
// acknowledges before it runs the handlers, but the ack crosses the network
// back, so it is usually the last event of an epoch, after the last handler.
func (r *Rank) handleAck(e envelope) {
	ab := e.data.(ackBody)
	l := &r.send[int(e.src)][ab.typ]
	l.mu.Lock()
	o, ok := l.out[e.seq]
	if ok {
		delete(l.out, e.seq)
	}
	l.mu.Unlock()
	if ok {
		if r.u.ackRTT != nil && o.sentNs != 0 {
			// RTT from the first transmission, so a retransmitted
			// envelope's RTT includes the recovery latency.
			r.u.ackRTT.Observe(r.id, obs.Now()-o.sentNs)
		}
		o.release(r.u.types[ab.typ])
		r.relAdd(-1)
	}
}

// backoffShiftCap bounds the exponential retransmit backoff at
// retransmitBase << 6 ticks.
const backoffShiftCap = 6

// backoffTicks returns the retransmit timeout after `attempts`
// transmissions on link (src → dest, typ, seq): exponential in attempts,
// capped at retransmitBase << backoffShiftCap, and spread deterministically by
// up to ±u.jitter of the nominal value (never below one tick). The jitter is
// a pure function of (seed, link, seq, attempts), so a fixed seed still
// yields a reproducible schedule; an acknowledged envelope leaves the table,
// so a later envelope on the same link restarts from attempts = 0.
func (u *Universe) backoffTicks(src, dest, typ int, seq uint64, attempts int) uint64 {
	fp := u.fp
	t := uint64(fp.retransmitBase) << min(attempts, backoffShiftCap)
	if j := u.jitter; j > 0 {
		f := 1 - j + 2*j*fp.roll(faultBackoffJitter, src, dest, typ, seq, attempts)
		if t = uint64(float64(t) * f); t < 1 {
			t = 1
		}
	}
	return t
}

// claimTick reports whether this rank's link tick may advance now, and if so
// claims the advance. Real-latency backends pace the tick: a spinning
// progress loop polls millions of times a second, which would turn the
// tick-denominated retransmit timeouts into microseconds and retransmit every
// frame long before a socket round trip completes. A parking universe's tick
// is the retransmit clock's generation, which moves once per interval and
// wakes the mains that read it; any other real-latency universe's is one
// interval of monotonic time. In process the tick advances on every poll.
func (r *Rank) claimTick() bool {
	u := r.u
	var now, step int64
	switch {
	case u.clock != nil:
		now, step = int64(u.clock.gen.Load()), 1
	case u.tickIntNs > 0:
		now, step = obs.Now(), u.tickIntNs
	default:
		return true
	}
	last := r.lastTick.Load()
	return now-last >= step && r.lastTick.CompareAndSwap(last, now)
}

// pollLinks advances this rank's link tick, releases matured delayed
// envelopes, and retransmits overdue unacknowledged envelopes. It reports
// whether it moved anything. Called from flushAll, i.e. from epoch bodies,
// progress loops and, on a parking universe, handler threads after a
// delivery; the retransmit clock never calls it, it only wakes the mains.
func (r *Rank) pollLinks() bool {
	u := r.u
	if u.fp == nil || r.relPendingNow() == 0 {
		return false
	}
	if u.epochState.Load() == epochAborting {
		return false // the epoch is aborting; the run is failing
	}
	if !r.claimTick() {
		return false
	}
	now := r.linkTick.Add(1)
	worked := false
	type resend struct {
		rec     *msgType
		o       *outEnvelope
		dest    int
		seq     uint64
		attempt int
	}
	var resends []resend
	var releases []envelope
	var releaseDest []int
	for dest := range r.send {
		for typ := range r.send[dest] {
			l := &r.send[dest][typ]
			l.mu.Lock()
			if len(l.delayed) > 0 {
				kept := l.delayed[:0]
				for _, d := range l.delayed {
					if d.due <= now {
						releases = append(releases, d.env)
						releaseDest = append(releaseDest, dest)
					} else {
						kept = append(kept, d)
					}
				}
				l.delayed = kept
			}
			// Collect due seqs in sorted order: map iteration order is
			// random, and the retransmission order feeds delivery and
			// ack timing, which must be reproducible for a fixed seed
			// on a deterministic (single-threaded) schedule.
			var due []uint64
			for seq, o := range l.out {
				if o.due <= now {
					due = append(due, seq)
				}
			}
			slices.Sort(due)
			for _, seq := range due {
				o := l.out[seq]
				o.attempts++
				// A rank hosted by another process has no inbox here to
				// watch, so every transmission to it is charged.
				if q := u.ranks[dest].inbox; q.Polls() >= o.destPolls || !u.isLocal(dest) {
					o.charged++
					o.destPolls = q.drainedBy()
				}
				if o.charged > u.fp.maxAttempts {
					// Retransmit ceiling: declare the link dead. The
					// envelope is parked (never due again) and the
					// structured fault aborts the epoch: Universe.Run
					// returns it.
					o.due = ^uint64(0)
					l.mu.Unlock()
					r.st.Inc(cLinkDeaths)
					u.trace(r.id, TraceLinkDead, int64(typ), int64(seq))
					u.raiseFault(RankFault{
						Kind: FaultLinkDead, Rank: dest, Epoch: u.epochSeq.Load(),
						Detail: fmt.Sprintf(
							"link %d->%d type %s seq %d dead after %d attempts (FaultPlan seed %d)",
							r.id, dest, u.types[typ].name, seq, o.charged, u.fp.Seed),
					})
					return worked
				}
				o.due = now + u.backoffTicks(r.id, dest, typ, seq, o.attempts)
				// Pin the batch across the retransmission: a concurrent ack
				// must not recycle it while xmit is still re-encoding.
				o.refs.Add(1)
				resends = append(resends, resend{u.types[typ], o, dest, seq, o.attempts})
			}
			l.mu.Unlock()
		}
	}
	for i, e := range releases {
		u.push(r.id, releaseDest[i], e)
		r.relAdd(-1)
		worked = true
	}
	for _, rs := range resends {
		rs.rec.xmit(r, rs.dest, rs.seq, rs.attempt, rs.o.data, rs.o.lin)
		rs.o.release(rs.rec)
		worked = true
	}
	return worked
}

// totalRelPending sums the per-rank count of unacknowledged and delayed
// envelopes. Zero means every shipped envelope has been delivered and
// acknowledged — part of both detectors' quiescence condition, so epochs
// never end with protocol traffic still in flight.
func (u *Universe) totalRelPending() int64 {
	if u.fp == nil {
		return 0
	}
	return u.relPending.Value()
}

// retransmitClock is the tick of a parking reliable universe. Its mains sleep
// in inbox.Await instead of polling, so nothing would run pollLinks when a
// frame is lost and no push follows: once per tick interval, while some
// envelope is unacknowledged or delayed anywhere, the clock bumps gen and
// wakes every rank main, whose Await condition reads gen, and the pass that
// follows polls the links (claimTick counts one link tick per generation).
// It sends nothing and stops before the transport closes (Universe.Run).
//
// The ticker runs only while armed. A rise of any rank's unacknowledged count
// arms it (relAdd → arm), and it disarms at a tick that finds the count 0
// everywhere. A sender raises the count before it reads armed, and the clock
// clears armed before it re-reads the count, so one of the two sees the
// other: an envelope is never left outstanding under a stopped clock.
type retransmitClock struct {
	gen   atomic.Uint64
	armed atomic.Bool
	kick  chan struct{} // capacity 1: the arm that started a stopped ticker
	stop  chan struct{}
	done  chan struct{}
}

func newRetransmitClock() *retransmitClock {
	return &retransmitClock{kick: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
}

// tick reads the clock's generation (0 on a universe without a clock).
func (c *retransmitClock) tick() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// arm starts the ticker if it is stopped. No-op on a universe without a clock.
func (c *retransmitClock) arm() {
	if c == nil || c.armed.Load() || !c.armed.CompareAndSwap(false, true) {
		return
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the clock's goroutine: it waits to be armed, then ticks every tick
// interval of the transport until a tick finds nothing outstanding.
func (c *retransmitClock) run(u *Universe) {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		t := time.NewTicker(time.Duration(u.tickIntNs))
		for c.armed.Load() {
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-t.C:
			}
			if u.totalRelPending() == 0 {
				c.armed.Store(false)
				if u.totalRelPending() == 0 {
					continue // the loop condition re-reads armed: a sender may have armed since
				}
				c.armed.Store(true)
			}
			c.gen.Add(1)
			u.wakeMains()
		}
		t.Stop()
	}
}

// halt stops the clock and joins its goroutine. No-op on a universe without
// a clock.
func (c *retransmitClock) halt() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}
