package am

import "sync"

// atomicQuiesced reports whether the universe is quiescent according to the
// shared-counter detector: every epoch-body participant idle, no message
// pending (sent but not fully handled), no registered deferred work, and —
// in reliable mode — no envelope unacknowledged or held by the fault
// injector (totalRelPending). The last condition makes an epoch end clean:
// a dropped envelope keeps both pending and relPending non-zero until its
// retransmit lands, and a delivered-but-unacknowledged envelope keeps
// relPending non-zero until its (re)ack lands, so the epoch cannot end with
// protocol traffic still in flight.
//
// Retransmits and suppressed duplicates never touch pending (counted once
// per shipped message in ship, subtracted once per delivered batch in
// handled), so faults cannot double-count toward quiescence.
//
// Once true, the condition is stable: no body is running, no handler is
// running (pending counts messages through their batch's completion), and work
// can only be created by bodies or handlers. The idle counters are re-read after
// pending to close the window where a body went back to work because it saw
// a pending message that has since been handled (see DESIGN.md).
func (u *Universe) atomicQuiesced() bool {
	if !u.bodiesIdle() {
		return false
	}
	if u.pending.Load() != 0 || u.totalAux() != 0 || u.totalRelPending() != 0 {
		return false
	}
	if !u.bodiesIdle() {
		return false
	}
	return u.pending.Load() == 0 && u.totalAux() == 0 && u.totalRelPending() == 0
}

// handled accounts a delivered batch of n messages of type id after its last
// handler returned, so the handlers' sends are counted before the decrement.
func (r *Rank) handled(id int32, n int) {
	r.st.Add(cHandlersRun, int64(n))
	r.tst.Add(int(id)*tcPerType+tcHandled, int64(n))
	if r.u.fourCounter {
		r.recvC.Add(int64(n))
	} else if r.u.pending.Add(-int64(n)) == 0 && r.u.park {
		r.u.settle()
	}
}

// settle finishes the epoch if the universe is quiescent. The progress loop
// calls it on every quiet pass; on a parking universe that loop sleeps, so the
// events that can make the universe quiescent call it too: a handler whose
// batch takes pending to 0 (handled, from both deliver paths), a body
// participant going idle (runBodies; in the one-body path the participant is
// the rank main, whose quiet pass comes before it parks), and on a reliable
// universe whoever takes a rank's count of unacknowledged and delayed
// envelopes to 0 (relAdd: the last ack, or the release of the last delayed
// envelope). Whoever finishes wakes the parked mains (finishEpoch).
//
// A handler thread may still be inside this call when the epoch it served
// has finished by another path. Its check must not land in the next epoch,
// where totalBodies is still 0 between the closing and opening barriers and
// the predicate reads true: progressUntilDone waits for the rank's deliveries
// to retire (activeH) before the rank leaves the epoch.
func (u *Universe) settle() {
	if u.atomicQuiesced() {
		u.finishEpoch()
	}
}

// wakeMains wakes every parked rank main of this process to re-check its
// condition (queue.Wake): the epoch finished or is aborting, or the
// retransmit clock ticked.
func (u *Universe) wakeMains() {
	for _, r := range u.localRanks() {
		r.inbox.Wake()
	}
}

func (u *Universe) bodiesIdle() bool {
	for _, r := range u.ranks {
		if r.idleBodies.Load() < r.totalBodies.Load() {
			return false
		}
	}
	return true
}

// fourCounterDriver implements Mattern-style four-counter termination
// detection. Rank 0 owns the driver for the duration of one epoch; wave()
// samples every rank and reports termination after two consecutive identical
// quiescent snapshots (the second wave proves no message was in flight
// during the first).
//
// A wave cannot mix two query contexts: rank 0 samples between its epoch's
// opening and closing barriers, so every rank it samples has entered that
// epoch, and none can leave it — let alone store the next epoch's context —
// before rank 0 reaches the closing barrier too.
type fourCounterDriver struct {
	u                  *Universe
	mu                 sync.Mutex
	prevSent, prevRecv int64
	havePrev           bool
}

// wave runs one probe wave and reports whether the epoch has terminated.
// Safe for concurrent callers (waves serialize). In multi-process mode only
// the local ranks are sampled directly; the sample ships over the control
// plane, the coordinator polls every other worker, and the merged global
// sample comes back — rank 0 (the only rank with a driver) then applies the
// same two-identical-quiescent-waves predicate to global totals.
func (d *fourCounterDriver) wave() bool {
	u := d.u
	d.mu.Lock()
	defer d.mu.Unlock()
	if u.epochState.Load() == epochFinished {
		return true
	}
	u.ranks[0].st.Inc(cTDWaves) // waves are driven from rank 0 only
	s := u.waveSample()
	if mp := u.mp; mp != nil {
		global, err := mp.plane.WireWave(s)
		if err != nil {
			// The fleet is aborting; the abort path ends the epoch.
			return false
		}
		s = global
	}
	ok := s.Idle >= s.Total && s.Active == 0 && s.Aux == 0 && s.Rel == 0 && s.Sent == s.Recv &&
		d.havePrev && s.Sent == d.prevSent && s.Recv == d.prevRecv
	d.prevSent, d.prevRecv, d.havePrev = s.Sent, s.Recv, true
	if ok {
		u.trace(0, TraceTDWave, 1, s.Sent)
	} else {
		u.trace(0, TraceTDWave, 0, s.Sent)
	}
	return ok
}

// waveSample reads every local rank's termination counters into this
// process's wave sample. The read stands for a probe and a reply per rank,
// which CtrlMsgs counts. Rel is a rank's count of unacknowledged + delayed
// envelopes (always 0 on the trusted transport): requiring the global sum to
// be zero keeps the four-counter protocol exact under injected faults — a
// dropped or in-flight envelope holds it above zero at its sender until the
// retransmit is delivered and acknowledged, and sentC/recvC count user
// messages exactly once (retransmits re-ship an envelope without touching
// sentC; the dedup window keeps duplicates away from handlers and recvC).
func (u *Universe) waveSample() WaveSample {
	var s WaveSample
	for _, r := range u.localRanks() {
		r.st.Add(cCtrlMsgs, 2)
		s.Add(WaveSample{
			Sent:   r.sentC.Load(),
			Recv:   r.recvC.Load(),
			Aux:    r.auxWork.Load(),
			Rel:    r.relPendingNow(),
			Active: r.activeH.Load(),
			Idle:   r.idleBodies.Load(),
			Total:  r.totalBodies.Load(),
		})
	}
	return s
}
