package am

import (
	"fmt"
	"runtime"
	"strings"

	"declpat/internal/obs"
)

// Rank-fault containment and epoch-granular checkpoint/restart.
//
// The epoch structure of the paper (§II, §III-D) gives the substrate exact
// recovery points for free: an epoch ends only when every message it caused
// — transitively — has been handled, and in reliable mode additionally
// acknowledged (relPending == 0 everywhere). The instant between two epochs
// is therefore a consistent cut: no envelope is in flight, no handler is
// running, no coalescing buffer holds data, and all registered deferred work
// is zero. Checkpoints are taken exactly there, and recovery rolls every
// rank back to that cut.
//
// Fault model: crash-stop ranks. A faulted rank (injected crash, contained
// handler panic, or the suspected endpoint of a dead link) stops handling,
// drops its inbox, and goes silent; peers observe it only through missing
// acknowledgements. Because the fault plan's reliable transport never lets
// an epoch commit while any envelope is unacknowledged, a mid-epoch fault
// can only delay the epoch, never corrupt a committed one.
//
// Recovery (WithRecovery) aborts the damaged epoch: the shared epoch
// state moves running→aborting, every body participant unwinds at its next
// Flush/TryFinish, in-flight handlers retire, and then — under barriers —
// every rank scrubs its transport state (inbox, coalescing buffers, link
// tables, detector counters) and restores the snapshots taken at the epoch
// boundary. The dead rank is restarted and the epoch body replays. Replay
// is exact because bodies and handlers are deterministic functions of the
// restored state; the chaos harness proves BFS/SSSP/CC bit-identical under
// crash schedules.

// Checkpointer is per-rank state that participates in epoch-granular
// checkpoint/restart. Register implementations with
// Universe.RegisterCheckpointer before Run. A snapshot is bytes: at every
// epoch boundary (WithRecovery or multi-process mode) the universe calls
// SnapshotRank for each rank, and it hands those bytes back to RestoreRank
// when an in-process rollback replays the epoch or a replacement process
// restarts it from the DPCK slot file. Both paths go through the same blobs
// (takeBlobs / restoreBlobs).
//
// SnapshotRank must be deterministic — identical state yields identical
// bytes — and must not alias live state. RestoreRank must leave the live
// state equal to the one the bytes were taken from; it may be handed the same
// bytes several times (repeated faults in one epoch). It must return an
// error, not panic, for bytes that do not decode or do not fit the live
// structure, and leave the live state untouched when it does. Both are called
// with the rest of the universe quiescent with respect to rank —
// SnapshotRank before the epoch's opening barrier, RestoreRank between
// recovery barriers or before a restarted epoch — so no locking against
// handlers is needed beyond the structure's own invariants.
//
// For recovery to be sound, *all* state a replayed epoch body or handler
// reads and writes must be registered (property maps, frontiers, bucket
// structures). Pure metrics (Stats counters) are exempt: they are
// monotonic diagnostics, not algorithm state, and recovery does not rewind
// them.
type Checkpointer interface {
	SnapshotRank(rank int) []byte
	RestoreRank(rank int, b []byte) error
}

// RegisterCheckpointer registers per-rank state for epoch-granular
// checkpoint/restart. Must be called before Run.
func (u *Universe) RegisterCheckpointer(c Checkpointer) {
	if u.frozen.Load() {
		panic("am: RegisterCheckpointer after Run")
	}
	u.checkpointers = append(u.checkpointers, c)
}

// FaultKind classifies rank faults.
type FaultKind int

const (
	// FaultCrash: an injected crash-stop failure (FaultPlan.Crashes).
	FaultCrash FaultKind = iota
	// FaultHandlerPanic: a message handler panicked; the panic was
	// contained and converted into a crash of the handling rank.
	FaultHandlerPanic
	// FaultLinkDead: a link's retransmit ceiling (FaultPlan.maxAttempts)
	// was exceeded; the destination rank is suspected dead.
	FaultLinkDead
	// FaultWatchdog: the stuck-epoch watchdog saw no progress for its
	// deadline (config.Watchdog, which only tests set). Watchdog faults are
	// fatal — replaying a wedged epoch would wedge again — and always fail
	// the run.
	FaultWatchdog
	// FaultTransport: a socket transport exhausted a link's reconnect
	// budget; the destination rank is suspected dead. Recoverable:
	// recovery heals the transport's links and replays the epoch.
	FaultTransport
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultHandlerPanic:
		return "handler-panic"
	case FaultLinkDead:
		return "link-dead"
	case FaultWatchdog:
		return "watchdog"
	case FaultTransport:
		return "transport"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// RankFault describes one rank fault observed by the universe. It is the
// error Universe.Run wraps when a fault cannot be recovered.
type RankFault struct {
	Kind   FaultKind
	Rank   int   // faulted (or suspected) rank
	Epoch  int64 // epoch sequence the fault hit
	Detail string
}

func (f *RankFault) Error() string {
	return fmt.Sprintf("rank %d %s at epoch %d: %s", f.Rank, f.Kind, f.Epoch, f.Detail)
}

// Epoch state machine. The shared epoch flag of the original design
// (epochDone) became a three-state machine so that a fault and a detector
// cannot both claim the epoch: detectors CAS running→done, faults CAS
// running→aborting, and whichever wins decides whether the epoch commits
// or rolls back. Both transitions are observed by every rank at the barrier
// that follows the epoch attempt.
const (
	epochRunning int32 = iota
	epochFinished
	epochAborting
)

// epochAbort is the sentinel panic that unwinds an epoch-body participant
// when its epoch is rolling back. Thrown only by Flush and TryFinish (the
// body's mandatory progress points) and by abortCheck; recovered by the
// body wrappers in EpochThreaded.
type epochAbort struct{}

// runAbort is the sentinel panic that unwinds a rank main when the run has
// failed; recovered at the top of each rank-main goroutine in Run, which
// then reports Universe.Run's error.
type runAbort struct{}

// raiseFault records f and tries to move the current epoch running→aborting.
// It reports whether f became the epoch's deciding fault; a fault raised
// while the epoch is already aborting (concurrent faults) or already done
// (lost the race to the detector) is logged only.
func (u *Universe) raiseFault(f RankFault) bool {
	if u.mp != nil && u.runExited.Load() {
		// The run already completed: every rank main returned and the results
		// are final. In multi-process mode peers close their data-plane
		// sockets at slightly different times, so a slower worker's
		// heartbeats can exhaust a reconnect budget against an
		// already-departed peer — that is teardown noise, not a fault, and
		// must not trigger a spurious fleet restart.
		return false
	}
	u.faultMu.Lock()
	u.faultLog = append(u.faultLog, f)
	u.faultMu.Unlock()
	if !u.epochState.CompareAndSwap(epochRunning, epochAborting) {
		return false
	}
	u.faultMu.Lock()
	u.fault = &f
	u.faultMu.Unlock()
	if u.park {
		// Parked mains wait for the epoch to leave running, as for a finish.
		u.wakeMains()
	}
	u.ranks[0].st.Inc(cEpochAborts)
	u.trace(f.Rank, TraceEpochAbort, f.Epoch, int64(f.Kind))
	// Every fault class converges here — injected crash, handler panic, dead
	// link, watchdog fire, transport escalation — so this is the single
	// black-box persistence point for the "worker died messily" cases.
	u.flightPersist("fault: " + f.Error())
	if u.mp != nil {
		// No in-process rollback in multi-process mode: report the fault so
		// the coordinator aborts the fleet, and take this process down the
		// abort path immediately — the launcher respawns every worker from
		// the last committed checkpoint.
		u.mp.plane.ReportFault(f)
		u.mpFail(fmt.Errorf("am: rank fault aborted multi-process run (restart required): %w", &f))
	}
	return true
}

// currentFault returns the deciding fault of the aborting epoch.
func (u *Universe) currentFault() *RankFault {
	u.faultMu.Lock()
	defer u.faultMu.Unlock()
	return u.fault
}

// clearFault discards the deciding fault after a successful recovery.
func (u *Universe) clearFault() {
	u.faultMu.Lock()
	u.fault = nil
	u.faultMu.Unlock()
}

// FaultLog returns every rank fault observed so far, deciding or not.
// Read at quiescent points (after Run).
func (u *Universe) FaultLog() []RankFault {
	u.faultMu.Lock()
	defer u.faultMu.Unlock()
	return append([]RankFault(nil), u.faultLog...)
}

// failRun records the terminal error; every rank main unwinds via runAbort
// at the next recovery barrier and Run returns the error.
func (u *Universe) failRun(err error) {
	u.faultMu.Lock()
	if u.runErr == nil {
		u.runErr = err
	}
	u.faultMu.Unlock()
	u.runFailed.Store(true)
}

// runError returns the terminal error recorded by failRun, if any.
func (u *Universe) runError() error {
	u.faultMu.Lock()
	defer u.faultMu.Unlock()
	return u.runErr
}

// abortCheck unwinds the calling epoch-body participant when the epoch is
// rolling back (or the rank itself has crashed). Called from the body-side
// entry points Flush and TryFinish.
func (r *Rank) abortCheck() {
	if r.u.epochState.Load() == epochAborting || r.crashed.Load() {
		panic(epochAbort{})
	}
}

// crashNow marks r crashed (crash-stop): it drops the inbox, stops
// handling, sending, flushing, and retransmitting, and raises the fault
// that will abort the current epoch. Peers observe the crash only through
// silence (missing acks keep relPending non-zero, so detectors cannot
// commit the damaged epoch).
func (r *Rank) crashNow(kind FaultKind, detail string) {
	if !r.crashed.CompareAndSwap(false, true) {
		return
	}
	u := r.u
	if kind == FaultCrash {
		r.st.Inc(cRankCrashes)
	}
	u.trace(r.id, TraceCrash, u.epochSeq.Load(), int64(kind))
	r.inbox.DropAll()
	u.raiseFault(RankFault{Kind: kind, Rank: r.id, Epoch: u.epochSeq.Load(), Detail: detail})
}

// armCrashes scans the fault plan for crash entries targeting (r, current
// epoch): an entry with AfterHandled <= 0 fires immediately (the rank is
// dead on epoch entry), otherwise the rank arms a mid-epoch trigger checked
// per delivered envelope. Runs before the epoch attempt's opening barrier,
// so the trigger is armed before any peer can send. Each entry fires at
// most once per run.
func (r *Rank) armCrashes() {
	u := r.u
	r.crashAfter.Store(-1)
	if u.fp == nil || len(u.fp.Crashes) == 0 {
		return
	}
	epoch := u.epochSeq.Load()
	for i := range u.fp.Crashes {
		c := &u.fp.Crashes[i]
		if c.Rank != r.id || c.Epoch != epoch || u.crashFired[i].Load() {
			continue
		}
		if c.AfterHandled <= 0 {
			u.crashFired[i].Store(true)
			r.crashNow(FaultCrash, fmt.Sprintf("injected crash-stop at epoch entry (FaultPlan.Crashes[%d])", i))
			return
		}
		r.crashIdx = i
		r.crashAfter.Store(int64(c.AfterHandled))
		return // at most one armed trigger per rank per epoch attempt
	}
}

// crashDue fires an armed mid-epoch crash once the rank has handled its
// k-th message of the epoch. Called from deliverEnvelope before handling;
// reports whether the rank just died (the triggering envelope dies with it).
func (r *Rank) crashDue() bool {
	ca := r.crashAfter.Load()
	if ca < 0 || r.handledInEpoch.Load() < ca {
		return false
	}
	if !r.crashAfter.CompareAndSwap(ca, -1) {
		return false // another handler thread fired it first
	}
	u := r.u
	u.crashFired[r.crashIdx].Store(true)
	r.crashNow(FaultCrash, fmt.Sprintf(
		"injected crash-stop after %d handled messages (FaultPlan.Crashes[%d])", ca, r.crashIdx))
	return true
}

// linkDown reports whether the fault plan severs (src → dest) during the
// current epoch (FaultPlan.DeadLinks). A severed direction swallows every
// transmission — data and acks — until the sender's retransmit ceiling
// declares the link dead; the link is healed when the epoch recovers.
func (u *Universe) linkDown(src, dest int) bool {
	if !u.hasDeadLinks {
		return false
	}
	epoch := u.epochSeq.Load()
	for i := range u.fp.DeadLinks {
		dl := &u.fp.DeadLinks[i]
		if dl.Src == src && dl.Dest == dest && dl.Epoch == epoch && !u.linkHealed[i].Load() {
			return true
		}
	}
	return false
}

// healLinks marks every dead link of the current epoch healed; called by
// rank 0 during recovery so the replay can succeed.
func (u *Universe) healLinks() {
	if !u.hasDeadLinks {
		return
	}
	epoch := u.epochSeq.Load()
	for i := range u.fp.DeadLinks {
		if u.fp.DeadLinks[i].Epoch == epoch {
			u.linkHealed[i].Store(true)
		}
	}
}

// takeBlobs snapshots every registered Checkpointer for one rank, in
// registration order: one row of ckpt.Snapshot.Blobs.
func (u *Universe) takeBlobs(rank int) [][]byte {
	blobs := make([][]byte, len(u.checkpointers))
	for i, c := range u.checkpointers {
		blobs[i] = c.SnapshotRank(rank)
	}
	return blobs
}

// restoreBlobs rolls every registered Checkpointer for one rank back to the
// blobs takeBlobs took, in this process (rollback) or in the process a
// replacement worker replaced (restart).
func (u *Universe) restoreBlobs(rank int, blobs [][]byte) error {
	if len(blobs) != len(u.checkpointers) {
		return fmt.Errorf("am: rank %d checkpoint has %d blobs, want %d", rank, len(blobs), len(u.checkpointers))
	}
	for i, c := range u.checkpointers {
		if err := c.RestoreRank(rank, blobs[i]); err != nil {
			return fmt.Errorf("am: restoring checkpoint (rank %d, checkpointer %d): %w", rank, i, err)
		}
	}
	return nil
}

// recoverEpoch rolls the universe back to the checkpoint taken at the
// current epoch's boundary. On entry every rank sits behind the post-attempt
// barrier with epochState == epochAborting: bodies have unwound and
// progress loops have stopped. The sequence is collective — every rank runs
// it — and barrier-structured:
//
//  1. quiesce: each rank waits for its own in-flight handlers to retire
//     (aborting state stops new ones before they start), then a barrier
//     establishes that no handler runs anywhere and nothing new can be
//     pushed;
//  2. decide (rank 0): recovery disabled, a fatal fault kind, or an
//     exhausted per-epoch recovery budget fails the run — every rank then
//     unwinds via runAbort;
//  3. scrub: each rank drops its inbox, clears its coalescing buffers,
//     re-initializes its link tables, zeroes its detector counters, and
//     restores its registered checkpoints from the boundary's blobs (a blob
//     that does not restore fails the run); the dead rank is restarted by
//     clearing its crashed flag;
//  4. reset (rank 0): the shared pending counter is zeroed, dead links are
//     healed, the fault is cleared, and epochState returns to running —
//     after which the final barrier releases every rank into the replay.
func (r *Rank) recoverEpoch() {
	u := r.u
	ph := r.Phase(obs.PhaseRecovery)
	defer ph.End() // runs on the runAbort unwind too: a failed run still reports
	for r.activeH.Load() != 0 {
		runtime.Gosched()
	}
	r.Barrier() // no handler active anywhere; aborting state blocks new ones

	fault := u.currentFault()
	if r.id == 0 {
		u.recoveries++
		switch {
		case fault == nil: // unreachable; defensive
			u.failRun(fmt.Errorf("am: epoch %d aborted without a recorded fault", u.epochSeq.Load()))
		case fault.Kind == FaultWatchdog:
			u.failRun(fmt.Errorf("am: stuck-epoch watchdog: %w", fault))
		case !u.cfg.Recovery:
			u.failRun(fmt.Errorf("am: unrecoverable rank fault (Recovery disabled): %w", fault))
		case u.recoveries > u.cfg.MaxRecoveries:
			u.failRun(fmt.Errorf("am: epoch %d still failing after %d recoveries: %w",
				u.epochSeq.Load(), u.recoveries-1, fault))
		}
	}
	r.Barrier() // decision visible everywhere
	if u.runFailed.Load() {
		panic(runAbort{})
	}

	// Scrub transport and detector state back to the epoch-boundary cut.
	r.inbox.DropAll()
	for _, mt := range u.types {
		mt.clear(r)
	}
	if u.fp != nil {
		r.initReliability(len(u.types))
		u.relPending.Add(r.id, -u.relPending.ShardValue(r.id))
	}
	r.sentC.Store(0)
	r.recvC.Store(0)
	r.auxWork.Store(0)
	r.handledInEpoch.Store(0)
	r.crashAfter.Store(-1)
	if err := u.restoreBlobs(r.id, u.blobs[r.id]); err != nil {
		u.failRun(err)
	}
	r.crashed.Store(false) // restart the dead rank
	r.Barrier()            // all ranks scrubbed and restored
	if u.runFailed.Load() {
		panic(runAbort{})
	}

	if r.id == 0 {
		u.pending.Store(0)
		u.healLinks()
		// Heal the transport too: links a socket backend declared dead
		// (reconnect budget exhausted) get a fresh budget and a new
		// reconnect attempt, so the replay is not doomed by the outage
		// that aborted this attempt.
		u.net.healEpoch()
		u.clearFault()
		u.touchProgress()
		r.st.Inc(cRecoveries)
		u.trace(0, TraceRecover, u.epochSeq.Load(), int64(u.recoveries))
		// Advance the envelope generation before reopening the epoch: any
		// envelope created before this point carries a stale gen and is
		// discarded at delivery, so a straggler push (a worker descheduled
		// across the whole recovery) cannot leak pre-abort traffic into the
		// replay.
		u.epochGen.Add(1)
		u.epochState.Store(epochRunning)
	}
	r.Barrier() // state reset visible; every rank replays the epoch body
}

// touchProgress stamps the watchdog's progress clock. Called wherever the
// substrate demonstrably moved: envelopes delivered, buffers flushed,
// epochs opened, recoveries completed.
func (u *Universe) touchProgress() {
	if u.cfg.Watchdog > 0 {
		u.lastProgress.Store(obs.Now())
	}
}

// checkWatchdog fires the stuck-epoch watchdog when no progress has been
// observed for config.Watchdog. The watchdog converts a silent hang — a
// body spinning on TryFinish over deferred work nobody consumes, a lost
// wakeup — into a diagnostic failure: the raised fault is fatal (replay
// would wedge again) and carries a dump of the detector counters and the
// most recent trace events. Called from the detector-idle branches of
// progressUntilDone and TryFinish; it fires at most once per run.
func (r *Rank) checkWatchdog() {
	u := r.u
	if u.cfg.Watchdog <= 0 {
		return
	}
	last := u.lastProgress.Load()
	if last == 0 || obs.Now()-last < int64(u.cfg.Watchdog) {
		return
	}
	if !u.watchdogFired.CompareAndSwap(false, true) {
		return
	}
	r.st.Inc(cWatchdogFires)
	u.trace(r.id, TraceWatchdog, u.epochSeq.Load(), 0)
	u.raiseFault(RankFault{
		Kind: FaultWatchdog, Rank: r.id, Epoch: u.epochSeq.Load(),
		Detail: fmt.Sprintf("no progress for %v\n%s", u.cfg.Watchdog, u.diagnose()),
	})
}

// diagnose renders the stuck-epoch diagnostic dump: the detector and only the
// counters it keeps, per-rank state, and the trace rings' tail (if tracing).
func (u *Universe) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d diagnostic dump (%s detector):\n  ", u.epochSeq.Load(), u.cfg.Detector)
	if !u.fourCounter {
		fmt.Fprintf(&b, "pending=%d ", u.pending.Load())
	}
	fmt.Fprintf(&b, "aux=%d relPending=%d\n", u.totalAux(), u.totalRelPending())
	for _, r := range u.ranks {
		counts := ""
		if u.fourCounter {
			counts = fmt.Sprintf(" sent=%d recv=%d", r.sentC.Load(), r.recvC.Load())
		}
		fmt.Fprintf(&b, "  rank %d: idle=%d/%d activeH=%d aux=%d rel=%d inbox=%d%s crashed=%v\n",
			r.id, r.idleBodies.Load(), r.totalBodies.Load(), r.activeH.Load(),
			r.auxWork.Load(), r.relPendingNow(), r.inbox.Len(), counts, r.crashed.Load())
	}
	if events := u.Trace(); len(events) > 0 {
		const tail = 32
		start := 0
		if len(events) > tail {
			start = len(events) - tail
		}
		fmt.Fprintf(&b, "  trace tail (%d of %d events):\n", len(events)-start, len(events))
		for _, ev := range events[start:] {
			fmt.Fprintf(&b, "    %s\n", ev)
		}
	} else {
		b.WriteString("  trace: disabled (set WithTraceCapacity for event history)\n")
	}
	return b.String()
}
