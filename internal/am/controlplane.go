package am

import (
	"fmt"
	"path/filepath"
	"sync"

	"declpat/internal/ckpt"
	"declpat/internal/obs"
)

// This file is the multi-process SPMD seam: when a universe hosts only a
// contiguous slice of the global rank range (one worker process of a
// launched fleet), the collectives, the termination detector and the
// recovery protocol stop being process-local and ride a ControlPlane — a
// client the launcher's coordinator serves over versioned CRC-sealed wire
// frames (internal/mp). The universe stays oblivious to the wire format; it
// only sees the interface below.

// WaveSample is one process's aggregate contribution to a four-counter
// termination-detection wave: the summed message/aux/reliability counters
// and handler/body activity of its local ranks. Samples from every worker
// merge by field-wise addition; the global wave is quiescent when the
// merged sample says every body everywhere is idle and the counters are
// stable (detector.go has the full predicate).
type WaveSample struct {
	Sent, Recv, Aux, Rel int64
	Active               int32
	Idle, Total          int32
}

// Add merges another process's sample into s (field-wise sum).
func (s *WaveSample) Add(o WaveSample) {
	s.Sent += o.Sent
	s.Recv += o.Recv
	s.Aux += o.Aux
	s.Rel += o.Rel
	s.Active += o.Active
	s.Idle += o.Idle
	s.Total += o.Total
}

// ControlPlane is what a worker-side universe calls to run global control
// operations over the wire. Every method may block on network round trips
// and returns an error when the fleet is aborting (coordinator gone, a peer
// crashed, a round timed out); the universe converts any control-plane
// error into a local run abort so the process exits and the launcher can
// respawn the fleet from the last committed checkpoint.
type ControlPlane interface {
	// ExchangeAddrs registers this worker's data-plane listener addresses
	// (one per local rank) and blocks until every worker has registered,
	// returning the full table indexed by global rank.
	ExchangeAddrs(local []string) ([]string, error)
	// WireBarrier enters the global barrier and blocks until every worker's
	// leader has entered. epoch >= 0 tags the barrier as that epoch's
	// checkpoint-commit vote: completion means every worker has its slot
	// file for that epoch on disk, so the coordinator advances the committed
	// restart point. epoch == PlainBarrier is an untagged barrier.
	WireBarrier(epoch int64) error
	// WireGather contributes this worker's slice of an all-gather (the
	// values of its local ranks, in rank order) and returns the full
	// global vector. Backs AllReduce*/AllGather: reductions fold the full
	// vector locally so the coordinator never needs the op.
	WireGather(local []int64) ([]int64, error)
	// WireWave runs one global termination-detection wave: ships the local
	// sample, the coordinator polls every other worker, and the merged
	// global sample comes back. Only the worker hosting global rank 0
	// calls this.
	WireWave(local WaveSample) (WaveSample, error)
	// AnnounceFinish tells the coordinator this epoch quiesced (called by
	// the worker hosting rank 0 after it flips the epoch to finished); the
	// coordinator rebroadcasts so every other worker's universe finishes
	// the epoch too.
	AnnounceFinish() error
	// ReportFault ships a local rank fault to the coordinator, which aborts
	// the fleet and lets the launcher drive checkpoint/restart.
	ReportFault(f RankFault)
}

// PlainBarrier is the WireBarrier tag for barriers that are not
// checkpoint-commit votes.
const PlainBarrier int64 = -1

// ControlHooks are the callbacks a control-plane client needs from the
// universe: they run on the client's reader goroutine when the coordinator
// polls or broadcasts. Obtain them with Universe.ControlHooks after
// construction.
type ControlHooks struct {
	// SampleWave reads the local ranks' counters into this process's wave
	// sample. ok is false once every local rank main has returned (the caller
	// should report an empty, non-quiescent sample upstream or fail the
	// poll).
	SampleWave func() (sample WaveSample, ok bool)
	// RemoteFinish marks the running epoch finished (another worker's
	// detector saw global quiescence). No-op outside a running epoch.
	RemoteFinish func()
	// RemoteAbort fails the run with err and unblocks every parked rank:
	// the fleet is going down (a peer crashed, a peer left cleanly, or a
	// control round failed) and this process must exit so the launcher can
	// respawn it. clean says whether the departed peer said goodbye first.
	RemoteAbort func(err error, clean bool)
}

// MPConfig wires a universe into a multi-process fleet: the universe hosts
// global ranks [Lo, Hi) and runs every global control operation through
// Plane. Zero-value fields mean "fresh run" (no restart, no checkpoint).
type MPConfig struct {
	// Plane carries barriers, gathers, detector waves and fault reports.
	Plane ControlPlane
	// Lo, Hi bound the contiguous global rank range this process hosts.
	Lo, Hi int
	// RunID is the fleet-wide identity shared by every worker of a launch:
	// it seals data-plane handshakes (all workers of one launch accept each
	// other) and validates checkpoint files across respawns.
	RunID uint64
	// RestartEpoch is the first epoch to execute live. Epochs below it were
	// committed before a crash: their bodies are skipped and their
	// collective results replayed from CollectiveLog. Zero for fresh runs.
	RestartEpoch int64
	// HaveCheckpoint says a committed checkpoint exists: at RestartEpoch's
	// entry the universe reloads every registered checkpointer from the
	// slot file before running the epoch.
	HaveCheckpoint bool
	// CollectiveLog replays the all-gather results consumed before
	// RestartEpoch (in execution order). The coordinator records them
	// during the original run and ships the committed prefix on respawn.
	CollectiveLog [][]int64
	// CheckpointDir is where this worker's slot files live. Must be shared
	// (same filesystem path) between a worker and its replacement.
	CheckpointDir string
	// WorkerIndex names this worker within the fleet (stable across
	// respawns; used in slot file names and diagnostics).
	WorkerIndex int
}

// mpState is the universe's runtime view of MPConfig plus the local
// synchronization the wire protocol needs: a process-local barrier that
// elects the leader rank (Lo) to perform each wire round on behalf of all
// local ranks, and the collective-replay cursor.
type mpState struct {
	cfg      MPConfig
	plane    ControlPlane
	lo, hi   int
	localBar *barrier

	restart  int64
	haveCkpt bool
	log      [][]int64
	logUsed  int

	dir    string
	worker int

	// wireErr latches the first control-plane failure for diagnostics.
	wireMu  sync.Mutex
	wireErr error
}

func newMPState(cfg MPConfig) *mpState {
	return &mpState{
		cfg:      cfg,
		plane:    cfg.Plane,
		lo:       cfg.Lo,
		hi:       cfg.Hi,
		localBar: newBarrier(cfg.Hi - cfg.Lo),
		restart:  cfg.RestartEpoch,
		haveCkpt: cfg.HaveCheckpoint,
		log:      cfg.CollectiveLog,
		dir:      cfg.CheckpointDir,
		worker:   cfg.WorkerIndex,
	}
}

// slotPath is the two-slot checkpoint file for epoch: slots alternate by
// epoch parity so the previous committed checkpoint survives a crash while
// the next one is being written.
func (mp *mpState) slotPath(epoch int64) string {
	return filepath.Join(mp.dir, fmt.Sprintf("ckpt-w%d-s%d.dpck", mp.worker, epoch%2))
}

// leaderID is the rank that performs wire rounds for this process (global
// rank 0 in single-process mode).
func (u *Universe) leaderID() int {
	if u.mp != nil {
		return u.mp.lo
	}
	return 0
}

// isLocal reports whether global rank id is hosted by this process.
func (u *Universe) isLocal(id int) bool {
	if u.mp == nil {
		return true
	}
	return id >= u.mp.lo && id < u.mp.hi
}

// localRanks is the slice of ranks this process hosts.
func (u *Universe) localRanks() []*Rank {
	if u.mp == nil {
		return u.ranks
	}
	return u.ranks[u.mp.lo:u.mp.hi]
}

// ControlHooks returns the callbacks a control-plane client invokes on
// coordinator-initiated traffic. Valid once the universe is constructed.
func (u *Universe) ControlHooks() ControlHooks {
	return ControlHooks{
		SampleWave:   u.sampleWave,
		RemoteFinish: u.remoteFinish,
		RemoteAbort:  u.remoteAbort,
	}
}

// sampleWave answers a coordinator wave poll with this process's sample. It
// runs on the control-plane client's reader goroutine, concurrent with the
// rank mains; once they have all returned, ok is false (another worker can
// lag an epoch behind and still poll this one).
func (u *Universe) sampleWave() (WaveSample, bool) {
	if u.runExited.Load() {
		return WaveSample{}, false
	}
	return u.waveSample(), true
}

// remoteFinish ends the running epoch: another worker's detector proved
// global quiescence and the coordinator broadcast the finish.
func (u *Universe) remoteFinish() {
	if u.epochState.CompareAndSwap(epochRunning, epochFinished) {
		u.touchProgress()
	}
}

// remoteAbort fails the run and unparks every local rank: the fleet is
// aborting. clean distinguishes a peer that said goodbye (SIGTERM drain)
// from one that died; the departure counters keep the two apart in
// Universe.Metrics.
func (u *Universe) remoteAbort(err error, clean bool) {
	st := u.ranks[u.leaderID()].st
	if clean {
		st.Inc(cCleanDepartures)
	} else {
		st.Inc(cCrashDepartures)
	}
	// The fleet is going down around this (still-healthy) worker; its black
	// box is part of the postmortem too.
	u.flightPersist("remote abort: " + err.Error())
	u.mpFail(err)
}

// mpFail is the single local abort path for control-plane failures: latch
// the error, flip a running epoch to aborting (stopping progress loops and
// handler admission), and poison the process-local barrier so parked rank
// mains unwind with runAbort. Idempotent.
func (u *Universe) mpFail(err error) {
	mp := u.mp
	mp.wireMu.Lock()
	if mp.wireErr == nil {
		mp.wireErr = err
	}
	mp.wireMu.Unlock()
	u.failRun(err)
	if u.epochState.CompareAndSwap(epochRunning, epochAborting) {
		u.ranks[u.leaderID()].st.Inc(cEpochAborts)
	}
	u.touchProgress()
	mp.localBar.poison()
}

// mpBarrier is Rank.Barrier in multi-process mode: all local ranks meet at
// the process barrier, the leader enters the global wire barrier (tagged
// with an epoch when it doubles as a checkpoint-commit vote), and a second
// process barrier releases everyone once the wire round completed. A wire
// failure aborts the run on the spot.
func (r *Rank) mpBarrier(tag int64) {
	u := r.u
	mp := u.mp
	mp.localBar.Wait()
	if r.id == mp.lo {
		if err := mp.plane.WireBarrier(tag); err != nil {
			u.mpFail(fmt.Errorf("am: wire barrier failed: %w", err))
			panic(runAbort{})
		}
	}
	mp.localBar.Wait()
}

// mpAllGather backs AllReduce*/AllGatherInt64 in multi-process mode: local
// ranks deposit their values, the leader ships the local slice and spreads
// the returned global vector, and every rank folds or copies it locally.
// During fast-forward replay the leader consumes the next logged vector
// instead of going to the wire — the coordinator records every gather, so
// skipped epochs still observe the exact values of the original run.
func (r *Rank) mpAllGather(x int64) []int64 {
	u := r.u
	mp := u.mp
	u.coll.vals[r.id] = x
	mp.localBar.Wait()
	if r.id == mp.lo {
		var full []int64
		var err error
		if mp.logUsed < len(mp.log) {
			full = mp.log[mp.logUsed]
			mp.logUsed++
			if len(full) != len(u.coll.vals) {
				err = fmt.Errorf("am: replayed collective has %d values, want %d", len(full), len(u.coll.vals))
			}
		} else {
			full, err = mp.plane.WireGather(u.coll.vals[mp.lo:mp.hi])
			if err == nil && len(full) != len(u.coll.vals) {
				err = fmt.Errorf("am: wire gather returned %d values, want %d", len(full), len(u.coll.vals))
			}
		}
		if err != nil {
			u.mpFail(fmt.Errorf("am: wire gather failed: %w", err))
			panic(runAbort{})
		}
		copy(u.coll.vals, full)
	}
	mp.localBar.Wait()
	return u.coll.vals
}

// finishEpoch flips the running epoch to finished after a successful
// termination wave and, on a parking universe, wakes every parked rank main;
// in multi-process mode it also announces the finish so the coordinator can
// release every other worker's epoch. Returns whether this caller won the
// flip.
func (u *Universe) finishEpoch() bool {
	if !u.epochState.CompareAndSwap(epochRunning, epochFinished) {
		return false
	}
	if u.park {
		u.wakeMains()
	}
	if u.mp != nil {
		if err := u.mp.plane.AnnounceFinish(); err != nil {
			// The epoch is finished locally but peers cannot learn it; fail
			// the run and let every rank surface the error at the closing
			// barrier.
			u.mpFail(fmt.Errorf("am: announcing epoch finish failed: %w", err))
		}
	}
	return true
}

// mpSkipEpoch fast-forwards one committed epoch during restart: the body
// never runs, no wire traffic happens (every worker skips the same prefix
// independently), and only the epoch bookkeeping advances.
func (r *Rank) mpSkipEpoch() {
	u := r.u
	mp := u.mp
	mp.localBar.Wait()
	if r.id == mp.lo {
		u.epochSeq.Add(1)
		r.st.Inc(cEpochs)
	}
	r.inEpoch.Store(false)
	mp.localBar.Wait()
}

// mpEpochOpen is the epoch-entry protocol in multi-process mode: restore
// from the committed checkpoint when this is the restart epoch, write this
// epoch's snapshot slot, then vote it committed via the epoch-tagged wire
// barrier. When the barrier completes, every worker's slot file is on disk
// and the coordinator has advanced the restart point — a crash at any later
// moment replays from this epoch.
func (u *Universe) mpEpochOpen(r *Rank, epoch int64) {
	mp := u.mp
	mp.localBar.Wait()
	if r.id == mp.lo {
		if err := u.mpOpenLeader(epoch); err != nil {
			u.mpFail(err)
			panic(runAbort{})
		}
		if err := mp.plane.WireBarrier(epoch); err != nil {
			u.mpFail(fmt.Errorf("am: checkpoint-commit barrier failed: %w", err))
			panic(runAbort{})
		}
	}
	mp.localBar.Wait()
}

// mpOpenLeader is the leader's half of mpEpochOpen: restore (restart epoch
// only) then snapshot.
func (u *Universe) mpOpenLeader(epoch int64) error {
	mp := u.mp
	if epoch == mp.restart {
		if mp.logUsed != len(mp.log) {
			return fmt.Errorf("am: collective replay out of sync at restart epoch %d: used %d of %d logged gathers",
				epoch, mp.logUsed, len(mp.log))
		}
		if mp.haveCkpt {
			if err := u.mpRestore(epoch); err != nil {
				return err
			}
		}
	}
	if err := u.mpCheckpoint(epoch); err != nil {
		return err
	}
	for _, lr := range u.localRanks() {
		lr.st.Inc(cCheckpoints)
	}
	// Epoch commit is the periodic black-box persistence point: a later
	// SIGKILL — which runs no cleanup — leaves a flight dump at most one
	// epoch stale next to the checkpoint slots.
	if u.flight != nil {
		u.flight.EpochCommit(epoch, obs.Now())
		u.flightPersist(fmt.Sprintf("epoch %d commit", epoch))
	}
	return nil
}

// mpCheckpoint writes every local rank's checkpoint blobs — the rows an
// in-process rollback keeps in memory — into this epoch's slot file (atomic
// write).
func (u *Universe) mpCheckpoint(epoch int64) error {
	mp := u.mp
	snap := &ckpt.Snapshot{
		RunID: mp.cfg.RunID,
		Epoch: epoch,
		Lo:    uint32(mp.lo),
		Hi:    uint32(mp.hi),
	}
	for rank := mp.lo; rank < mp.hi; rank++ {
		snap.Blobs = append(snap.Blobs, u.takeBlobs(rank))
	}
	if err := ckpt.WriteFile(mp.slotPath(epoch), snap); err != nil {
		return fmt.Errorf("am: writing checkpoint for epoch %d: %w", epoch, err)
	}
	return nil
}

// mpRestore validates the committed slot file written before the crash
// against this worker and restores every local rank from its blobs.
func (u *Universe) mpRestore(epoch int64) error {
	mp := u.mp
	path := mp.slotPath(epoch)
	snap, err := ckpt.ReadFile(path)
	if err != nil {
		return fmt.Errorf("am: reading checkpoint for restart epoch %d: %w", epoch, err)
	}
	switch {
	case snap.RunID != mp.cfg.RunID:
		return fmt.Errorf("am: checkpoint %s belongs to run %016x, want %016x", path, snap.RunID, mp.cfg.RunID)
	case snap.Epoch != epoch:
		return fmt.Errorf("am: checkpoint %s holds epoch %d, want %d", path, snap.Epoch, epoch)
	case int(snap.Lo) != mp.lo || int(snap.Hi) != mp.hi:
		return fmt.Errorf("am: checkpoint %s covers ranks [%d,%d), want [%d,%d)", path, snap.Lo, snap.Hi, mp.lo, mp.hi)
	case len(snap.Blobs) != mp.hi-mp.lo:
		return fmt.Errorf("am: checkpoint %s has %d rank entries, want %d", path, len(snap.Blobs), mp.hi-mp.lo)
	}
	for rank := mp.lo; rank < mp.hi; rank++ {
		if err := u.restoreBlobs(rank, snap.Blobs[rank-mp.lo]); err != nil {
			return fmt.Errorf("%w (checkpoint %s)", err, path)
		}
	}
	return nil
}
