package am

import (
	"fmt"
	"runtime"
	"strings"

	"declpat/internal/obs"
)

// Rank-fault containment and the epoch-boundary checkpoint.
//
// The epoch structure of the paper (§II, §III-D) gives the substrate exact
// recovery points for free: an epoch ends only when every message it caused
// — transitively — has been handled, and in reliable mode additionally
// acknowledged (relPending == 0 everywhere). The instant between two epochs
// is therefore a consistent cut: no envelope is in flight, no handler is
// running, no coalescing buffer holds data, and all registered deferred work
// is zero. A multi-process fleet checkpoints exactly there (controlplane.go),
// and a restarted fleet resumes from that cut.
//
// Fault model: crash-stop ranks. A faulted rank (contained handler panic, or
// the suspected endpoint of a dead link) stops handling, drops its inbox, and
// goes silent; peers observe it only through missing acknowledgements.
// Because the fault plan's reliable transport never lets an epoch commit
// while any envelope is unacknowledged, a mid-epoch fault can only abort the
// epoch, never corrupt a committed one. An aborted epoch fails the run:
// every body participant unwinds at its next Flush/TryFinish, in-flight
// handlers retire, and Universe.Run returns the deciding *RankFault. In a
// fleet the coordinator then aborts every worker and the launcher respawns
// them from the last committed checkpoint (internal/mp).

// Checkpointer is per-rank state that participates in epoch-granular
// checkpoint/restart. Register implementations with
// Universe.RegisterCheckpointer before Run. A snapshot is bytes: at every
// epoch boundary of a multi-process run the universe calls SnapshotRank for
// each local rank and writes the bytes to the rank host's DPCK slot file; a
// replacement process hands them back to RestoreRank before the restarted
// epoch (takeBlobs / restoreBlobs).
//
// SnapshotRank must be deterministic — identical state yields identical
// bytes — and must not alias live state. RestoreRank must leave the live
// state equal to the one the bytes were taken from. It must return an
// error, not panic, for bytes that do not decode or do not fit the live
// structure, and leave the live state untouched when it does. Both are called
// with the rest of the universe quiescent with respect to rank —
// SnapshotRank before the epoch's opening barrier, RestoreRank before a
// restarted epoch — so no locking against handlers is needed beyond the
// structure's own invariants.
//
// For a restart to be sound, *all* state a re-run epoch body or handler
// reads and writes must be registered (property maps, frontiers, bucket
// structures). Pure metrics (Stats counters) are exempt: they are
// monotonic diagnostics, not algorithm state.
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
	// FaultHandlerPanic: a message handler panicked; the panic was
	// contained and converted into a crash of the handling rank.
	FaultHandlerPanic FaultKind = iota
	// FaultLinkDead: a link's retransmit ceiling (FaultPlan.maxAttempts)
	// was exceeded; the destination rank is suspected dead.
	FaultLinkDead
	// FaultWatchdog: the stuck-epoch watchdog saw no progress for its
	// deadline (config.Watchdog, which only tests set).
	FaultWatchdog
	// FaultTransport: a socket transport exhausted a link's reconnect
	// budget; the destination rank is suspected dead.
	FaultTransport
)

func (k FaultKind) String() string {
	switch k {
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

// RankFault describes one rank fault observed by the universe. The fault that
// aborts an epoch is the error Universe.Run wraps.
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
// or fails the run. Both transitions are observed by every rank at the barrier
// that follows the epoch attempt.
const (
	epochRunning int32 = iota
	epochFinished
	epochAborting
)

// epochAbort is the sentinel panic that unwinds an epoch-body participant
// when its epoch is aborting. Thrown only by Flush and TryFinish (the
// body's mandatory progress points) and by abortCheck; recovered by the
// body wrappers in EpochThreaded.
type epochAbort struct{}

// runAbort is the sentinel panic that unwinds a rank main when the run has
// failed; recovered at the top of each rank-main goroutine in Run, which
// then reports Universe.Run's error.
type runAbort struct{}

// raiseFault tries to move the current epoch running→aborting with f as its
// deciding fault, and reports whether it did; a fault raised while the epoch
// is already aborting (concurrent faults) or already done (lost the race to
// the detector) changes nothing.
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
	// The state moves under faultMu, so a rank that sees the epoch aborting
	// finds its deciding fault recorded (currentFault).
	u.faultMu.Lock()
	won := u.epochState.CompareAndSwap(epochRunning, epochAborting)
	if won {
		u.fault = &f
	}
	u.faultMu.Unlock()
	if !won {
		return false
	}
	if u.park {
		// Parked mains wait for the epoch to leave running, as for a finish.
		u.wakeMains()
	}
	u.ranks[0].st.Inc(cEpochAborts)
	u.trace(f.Rank, TraceEpochAbort, f.Epoch, int64(f.Kind))
	// Every fault class converges here — handler panic, dead link, watchdog
	// fire, transport escalation — so this is the single black-box
	// persistence point for the "worker died messily" cases.
	u.flightPersist("fault: " + f.Error())
	if u.mp != nil {
		// Report the fault so the coordinator aborts the fleet, and take
		// this process down the abort path immediately — the launcher
		// respawns every worker from the last committed checkpoint.
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

// failRun records the terminal error Run returns; the first one wins.
func (u *Universe) failRun(err error) {
	u.faultMu.Lock()
	if u.runErr == nil {
		u.runErr = err
	}
	u.faultMu.Unlock()
}

// runError returns the terminal error recorded by failRun, if any.
func (u *Universe) runError() error {
	u.faultMu.Lock()
	defer u.faultMu.Unlock()
	return u.runErr
}

// abortCheck unwinds the calling epoch-body participant when the epoch is
// aborting (or the rank itself has crashed). Called from the body-side
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
	u.trace(r.id, TraceCrash, u.epochSeq.Load(), int64(kind))
	r.inbox.DropAll()
	u.raiseFault(RankFault{Kind: kind, Rank: r.id, Epoch: u.epochSeq.Load(), Detail: detail})
}

// abortEpoch fails the run of an aborted epoch. On entry every rank sits
// behind the post-attempt barrier with epochState == epochAborting: bodies
// have unwound and progress loops have stopped. The rank waits for its own
// in-flight handlers to retire (the aborting state stops new ones before they
// start), records the deciding fault as Run's error, and unwinds via
// runAbort. Every rank takes this path from the same barrier, so none is
// left waiting in a collective. A multi-process run failed already in
// raiseFault or mpFail, whose error stands.
func (r *Rank) abortEpoch() {
	for r.activeH.Load() != 0 {
		runtime.Gosched()
	}
	if f := r.u.currentFault(); f != nil {
		r.u.failRun(fmt.Errorf("am: rank fault failed the run: %w", f))
	}
	panic(runAbort{})
}

// linkDown reports whether the fault plan severs (src → dest) during the
// current epoch (FaultPlan.deadLinks). A severed direction swallows every
// transmission — data and acks — until the sender's retransmit ceiling
// declares the link dead.
func (u *Universe) linkDown(src, dest int) bool {
	for _, dl := range u.fp.deadLinks {
		if dl.Src == src && dl.Dest == dest && dl.Epoch == u.epochSeq.Load() {
			return true
		}
	}
	return false
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
// blobs takeBlobs took in the process a replacement worker replaced.
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

// touchProgress stamps the watchdog's progress clock. Called wherever the
// substrate demonstrably moved: envelopes delivered, buffers flushed,
// epochs opened.
func (u *Universe) touchProgress() {
	if u.cfg.Watchdog > 0 {
		u.lastProgress.Store(obs.Now())
	}
}

// checkWatchdog fires the stuck-epoch watchdog when no progress has been
// observed for config.Watchdog. The watchdog converts a silent hang — a
// body spinning on TryFinish over deferred work nobody consumes, a lost
// wakeup — into a diagnostic failure: the raised fault carries a dump of the
// detector counters and the most recent trace events. Called from the
// detector-idle branches of progressUntilDone and TryFinish; it fires at
// most once per run.
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
