package am

import (
	"runtime"
	"sync"
	"time"

	"declpat/internal/obs"
)

// Epoch is the handle an epoch body uses to interact with the messaging
// layer: flushing, cooperative progress, and early-termination attempts.
// One Epoch value is passed to each body participant (rank thread).
type Epoch struct {
	r *Rank
}

// Rank returns the rank this epoch participant runs on.
func (ep *Epoch) Rank() *Rank { return ep.r }

// Epoch runs body inside a collective epoch: every rank of the universe must
// call Epoch "at the same time" (same sequence of collective calls). The
// call returns on every rank only after all messages sent by any body or any
// handler — transitively — have been handled everywhere (the paper's epoch
// guarantee, §II and §III-D).
func (r *Rank) Epoch(body func(ep *Epoch)) {
	r.EpochThreaded(1, func(_ int, ep *Epoch) { body(ep) })
}

// EpochCtx is Epoch tagged with a query context: every envelope the body (or
// any transitively-triggered handler) sends carries qid, every trace event
// recorded during the epoch attributes to qid, and deliveries validate the
// stamp — an envelope from another query context is never handled. Like
// Epoch, the call is collective: every rank must call EpochCtx with the same
// qid (mixing EpochCtx and Epoch, or disagreeing on qid, across ranks of one
// collective call is a bug and trips the cross-talk check). qid 0 is the
// untagged context and makes EpochCtx identical to Epoch.
//
// This is the primitive the query plane (internal/query) multiplexes on: a
// resident universe interleaves epochs of many independent queries, and the
// tag is what keeps BFS-from-A and SSSP-from-B apart in the message plane,
// the detector waves, and the exported timelines.
func (r *Rank) EpochCtx(qid int64, body func(ep *Epoch)) {
	r.EpochThreadedCtx(qid, 1, func(_ int, ep *Epoch) { body(ep) })
}

// EpochThreadedCtx is EpochThreaded tagged with a query context (see
// EpochCtx).
func (r *Rank) EpochThreadedCtx(qid int64, nthreads int, body func(tid int, ep *Epoch)) {
	r.nextQID = qid
	defer func() { r.nextQID = 0 }()
	r.EpochThreaded(nthreads, body)
}

// EpochThreaded is Epoch with nthreads body participants per rank, used by
// strategies that subdivide rank-local work across threads (the distributed
// Δ-stepping of §III-D). Each participant may call Flush and TryFinish on
// its own Epoch handle.
//
// Contract for TryFinish users: any rank-local deferred work (e.g. bucket
// contents) must be registered with AuxAdd before the message that created
// it finishes handling, and unregistered when consumed; otherwise the epoch
// can terminate while work remains.
//
// An epoch gets one attempt: a rank fault inside it fails the run, and every
// rank unwinds from the barrier that closes the attempt (abortEpoch). In a
// multi-process fleet the epoch boundary entered here is also the restart
// point: registered checkpointers are snapshotted before the opening barrier
// (the previous epoch ended acknowledged-quiet, so the state is a consistent
// cut), and a restarted fleet re-runs the body from that snapshot. Bodies
// must therefore be deterministic functions of the checkpointed state (every
// property map and frontier they touch registered), which all built-in
// strategies and algorithms are.
func (r *Rank) EpochThreaded(nthreads int, body func(tid int, ep *Epoch)) {
	if nthreads < 1 {
		panic("am: EpochThreaded needs at least one body thread")
	}
	u := r.u
	r.inEpoch.Store(true)
	// Publish the epoch's query context. Every rank of the collective call
	// stores the same value (a disagreement is caught by the delivery-side
	// cross-talk check), and the previous epoch's closing barrier guarantees
	// no envelope of the old context is still in flight, so the store cannot
	// race a legitimate delivery.
	u.curQuery.Store(r.nextQID)
	// Capture the epoch sequence once: rank 0 advances epochSeq before the
	// closing barrier, so a slower rank reading it at TraceEpochEnd would
	// mislabel its span (and mis-attribute every event inside it).
	epochSeq := u.epochSeq.Load()
	if u.mp != nil && epochSeq < u.mp.restart {
		// Restart fast-forward: this epoch committed before the crash. Its
		// body is skipped and any collective it consumed replays from the
		// coordinator's log; only the epoch bookkeeping advances. Every
		// worker skips the same prefix independently, with no wire traffic.
		r.mpSkipEpoch()
		return
	}
	if u.tracer != nil || u.flight != nil {
		// Stamp the span open so TraceEpochEnd can close it with a
		// duration (the rank's wall time inside the epoch). Epoch
		// boundaries are flight-recorder landmarks, so this fires for the
		// black box even with the trace rings off.
		r.epochBeginNs = obs.Now()
		u.traceSpan(r.id, TraceEpochBegin, epochSeq, int64(nthreads), r.epochBeginNs, 0)
	}
	if u.mp != nil {
		// Checkpoint at the boundary, before any rank can send into the
		// epoch: restore from the committed checkpoint when this is the
		// restart epoch, serialize this epoch's snapshot to its slot file,
		// and vote it committed via the epoch-tagged wire barrier.
		u.mpEpochOpen(r, epochSeq)
	}
	r.attempt.Add(1)
	r.totalBodies.Store(int32(nthreads))
	r.idleBodies.Store(0)
	if u.cfg.Detector == DetectorFourCounter && r.id == 0 {
		r.fc = &fourCounterDriver{u: u}
	}
	u.touchProgress()
	r.Barrier() // all ranks registered before anyone can quiesce
	kernel := r.Phase(obs.PhaseKernel)
	r.runBodies(nthreads, body)
	kernel.End() // the body+drain span: the epoch's kernel phase
	r.Barrier()  // every rank observed the same commit-or-abort outcome
	if u.epochState.Load() == epochAborting {
		r.abortEpoch() // fails the run and unwinds via runAbort
	}
	if u.tracer != nil || u.flight != nil {
		now := obs.Now()
		u.traceSpan(r.id, TraceEpochEnd, epochSeq, 0, now, now-r.epochBeginNs)
	}
	// All ranks observed the commit and stopped sending; the leader rank
	// (rank 0, or the lowest local rank of a worker process) resets the
	// shared state between the two barriers so the next epoch starts clean.
	if r.id == u.leaderID() {
		u.epochState.Store(epochRunning)
		u.epochSeq.Add(1)
		r.st.Inc(cEpochs)
	}
	r.inEpoch.Store(false)
	r.auxWork.Store(0)
	r.totalBodies.Store(0)
	r.idleBodies.Store(0)
	// A crash that lost the race to the epoch commit (the detector finished
	// first) dies with the epoch: the committed state is intact, and the
	// rank must not stay silent into the next epoch.
	r.crashed.Store(false)
	r.fc = nil
	r.Barrier()
}

// EpochAttempt returns a stamp that identifies the epoch attempt rank is in:
// it changes every time the rank enters an epoch, and is stable from the
// epoch's opening barrier until its closing one — the window in which the
// rank's bodies and handlers send. Between epochs it is the last epoch's. A
// layer that remembers what it has sent or requested (the pattern engine's
// send-side filter and pending words) keys that memory on the stamp: what an
// earlier stamp recorded was handled (the epoch guarantee). Never 0 inside an
// epoch.
func (u *Universe) EpochAttempt(rank int) uint64 { return u.ranks[rank].attempt.Load() }

// runBodies runs one epoch attempt: the body participants plus the rank
// main's progress loop, returning once the epoch has globally finished or
// is aborting (with every participant goroutine joined either way).
//
// With one body the rank main is the participant: its progress loop flushes
// what the body buffered and checks for quiescence before it parks. With
// several, a participant that goes idle while the main may be parked does
// both itself (parking universes only; elsewhere the polling main does).
func (r *Rank) runBodies(nthreads int, body func(tid int, ep *Epoch)) {
	if nthreads == 1 {
		r.runBody(0, body)
		r.idleBodies.Add(1)
		r.progressUntilDone()
		return
	}
	u := r.u
	var wg sync.WaitGroup
	for t := 0; t < nthreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r.runBody(t, body)
			if u.park {
				r.flushAll()
			}
			r.idleBodies.Add(1)
			if u.park {
				u.settle()
			}
		}(t)
	}
	// The rank main participates in progress while bodies run.
	r.progressUntilDone()
	wg.Wait()
	// Keep making progress until the whole universe is quiescent.
	r.progressUntilDone()
}

// runBody runs one body participant, absorbing the epochAbort unwind: a
// participant whose epoch is aborting simply stops (Flush and TryFinish
// throw the sentinel). All other panics propagate — a body bug is not a
// containable rank fault.
//
// The participant runs on a fresh facet of the rank: its deliveries (Flush,
// TryFinish drain envelopes inline) set the facet's ambient lineage parent
// without racing sibling participants.
func (r *Rank) runBody(tid int, body func(int, *Epoch)) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(epochAbort); !ok {
				panic(p)
			}
		}
	}()
	body(tid, &Epoch{r: r.facet()})
}

// progressUntilDone flushes, delivers, and participates in termination
// detection until the epoch is globally finished or aborting. It runs on
// its own facet: the deliveries of drainSome need a lineage context separate
// from the body participants'.
//
// A pass that finds nothing to do ends in idle on a polling universe. On a
// parking one (Universe.park) it blocks instead, until a push into the inbox,
// the end of the epoch (finished or aborting) or a tick of the retransmit
// clock wakes it: the event that makes the universe quiescent finishes the
// epoch itself (settle), finishEpoch and raiseFault wake every parked main,
// and a tick is what the next pass's pollLinks needs, so no check here has
// to be repeated to be seen.
func (r *Rank) progressUntilDone() {
	r = r.facet()
	u := r.u
	quiet := 0
	for u.epochState.Load() == epochRunning {
		if r.crashed.Load() {
			// Crash-stop: a dead rank neither flushes nor delivers; it
			// waits for the abort its crash raised to become visible.
			runtime.Gosched()
			continue
		}
		tick := u.clock.tick() // read before the pass: a tick during it is not slept through
		flushed := r.flushAll()
		worked := r.drainSome(64)
		if flushed || worked {
			u.touchProgress()
			quiet = 0
			continue
		}
		switch u.cfg.Detector {
		case DetectorAtomic:
			u.settle()
		case DetectorFourCounter:
			if r.fc != nil && r.fc.wave() {
				u.finishEpoch()
			}
		}
		r.checkWatchdog()
		r.quietPasses++
		if u.park {
			r.inbox.Await(func() bool { return u.epochState.Load() != epochRunning || u.clock.tick() != tick })
			continue
		}
		quiet++
		r.idle(quiet)
	}
	if u.epochState.Load() == epochAborting {
		return // the run is failing: abortEpoch retires the handlers
	}
	// Drain leftovers addressed to us that raced with the done flag. By
	// the detector's guarantee no user envelope remains (in reliable mode
	// the detectors additionally waited for every envelope to be
	// acknowledged), but redundant duplicate acks — re-acks of a
	// suppressed retransmit whose original ack already landed — may still
	// arrive; their handler is a no-op, and this sweep keeps the inbox
	// empty for the next epoch.
	for r.drainSome(64) {
	}
	if u.park {
		// A handler thread that took pending to 0 may still be in settle:
		// let it retire inside this epoch (see settle).
		for r.activeH.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// Flush implements the paper's epoch_flush: ship all locally buffered
// messages and perform as much pending local work as possible before
// returning control to the body. When the epoch is aborting, Flush unwinds
// the calling participant instead (see rankfault.go).
func (ep *Epoch) Flush() {
	r := ep.r
	r.st.Inc(cFlushes)
	r.u.trace(r.id, TraceFlush, 0, 0)
	for {
		r.abortCheck()
		flushed := r.flushAll()
		worked := r.drainSome(1 << 30)
		if !flushed && !worked {
			return
		}
	}
}

// AuxAdd registers n units of rank-local deferred work (e.g. items inserted
// into Δ-stepping buckets) with the termination detector. Call with negative
// n when work is consumed. Work must be registered on the rank that owns it.
func (ep *Epoch) AuxAdd(n int64) { ep.r.auxWork.Add(n) }

// AuxAdd on the rank is the handler-side equivalent of Epoch.AuxAdd; message
// handlers run without an Epoch handle but may create rank-local work.
func (r *Rank) AuxAdd(n int64) { r.auxWork.Add(n) }

// tryFinishSpins bounds the idle confirmation loop inside TryFinish.
const tryFinishSpins = 32

// TryFinish implements the paper's try_finish: flush, help with pending
// work, and attempt to end the epoch. It returns true when the epoch has
// terminated globally (the caller must then leave the body); false means
// more work may exist (possibly the caller's own, newly arrived) and the
// body should continue. When the epoch is aborting, TryFinish unwinds the
// calling participant instead (see rankfault.go).
//
// The caller must have drained its own deferred work (AuxAdd balance of its
// contributions zero) before calling.
func (ep *Epoch) TryFinish() bool {
	r := ep.r
	u := r.u
	r.abortCheck()
	r.flushAll()
	r.drainSome(1 << 30)
	if u.epochState.Load() == epochFinished {
		return true
	}
	r.idleBodies.Add(1)
	for i := 0; i < tryFinishSpins; i++ {
		switch u.epochState.Load() {
		case epochFinished:
			// Stay counted as idle: the epoch is over.
			return true
		case epochAborting:
			panic(epochAbort{})
		}
		switch u.cfg.Detector {
		case DetectorAtomic:
			if u.atomicQuiesced() {
				if u.finishEpoch() {
					return true
				}
				continue // lost to a fault: re-read the state
			}
			if u.pending.Load() > 0 || u.totalAux() > 0 || u.totalRelPending() > 0 {
				// Real work exists somewhere — possibly an envelope
				// awaiting retransmit that only this rank's polls can
				// re-ship — so go back to the body loop (whose next
				// TryFinish flushes and polls links) instead of
				// spinning here.
				i = tryFinishSpins
			}
		case DetectorFourCounter:
			// Rank 0 drives waves itself so a body that only ever
			// loops on TryFinish still terminates; other ranks
			// wait for the outcome while idle.
			if r.fc != nil && r.fc.wave() {
				if u.finishEpoch() {
					return true
				}
				continue
			}
		}
		r.checkWatchdog()
		if i == tryFinishSpins {
			// Leaving for the body, whose next TryFinish flushes and polls at
			// once: yield, never park.
			runtime.Gosched()
		} else {
			r.idle(i)
		}
	}
	r.idleBodies.Add(-1)
	return false
}

// idlePark is how long an idle progress loop sleeps on a transport whose
// frames arrive through the runtime's network poller.
const idlePark = 20 * time.Microsecond

// idleSpins is how many quiet passes in a row yield before the loop parks.
const idleSpins = 16

// idle gives up the processor after a pass that found nothing to do: a
// progress-loop pass on a universe that polls (not Universe.park), or a spin
// of TryFinish's confirmation loop. On the in-process transport that is a
// plain yield. On a socket transport a yield is not enough: a yielding
// goroutine stays runnable, so no processor ever runs out of work, and the Go
// scheduler polls the network only when one does (or from sysmon, every
// 10 ms) — the reader goroutines holding data and acks would wait for that
// while the senders' retransmit clocks run. Parking briefly lets a processor
// go idle and poll. quiet counts the caller's consecutive passes without
// work; the first idleSpins of them only yield, because an epoch with nothing
// to wait for ends within a few passes and parking at once would add the
// sleep to every such epoch.
func (r *Rank) idle(quiet int) {
	if r.u.net.shared() || quiet < idleSpins {
		runtime.Gosched()
		return
	}
	time.Sleep(idlePark)
}

// totalAux sums the per-rank deferred-work counters.
func (u *Universe) totalAux() int64 {
	var s int64
	for _, r := range u.ranks {
		s += r.auxWork.Load()
	}
	return s
}
