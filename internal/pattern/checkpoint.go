package pattern

// Epoch-granular checkpoint/restart support (am.Checkpointer). The engine's
// mutable per-rank state outside the user's property maps is each bound
// action's modification flag (the `once` strategy's changed-anything bit) and
// the pending words of its coalesced rerun hook (rerun.go). The words are all
// 0 at every epoch boundary, so there is nothing to save; a rollback drops the
// entries that would have cleared them, so RestoreRank clears them. Everything
// else — compiled actions, bindings, work hooks — is frozen before Run, and
// the send-side filter's tables describe one epoch attempt: the replay runs
// under a new am.Rank.EpochAttempt stamp, which empties them. Action-level
// Stats counters are diagnostics, not algorithm state, and are deliberately
// not rewound.

// SnapshotRank saves every bound action's modification flag for one rank
// (am.Checkpointer).
func (e *Engine) SnapshotRank(rank int) any {
	flags := make([]bool, len(e.actions))
	for i, ba := range e.actions {
		flags[i] = ba.modified[rank].Load()
	}
	return flags
}

// RestoreRank rolls every bound action's modification flag back for one rank
// and forgets the re-runs the aborted attempt had requested there
// (am.Checkpointer).
func (e *Engine) RestoreRank(rank int, snap any) {
	for i, f := range snap.([]bool) {
		ba := e.actions[i]
		ba.modified[rank].Store(f)
		if ba.pending != nil {
			for li := range ba.pending[rank] {
				ba.pending[rank][li].Store(0)
			}
		}
	}
}
