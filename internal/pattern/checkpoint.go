package pattern

import "declpat/internal/ckpt"

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

// SnapshotRank encodes every bound action's modification flag for one rank:
// a u32 action count, then one byte per action (am.Checkpointer).
func (e *Engine) SnapshotRank(rank int) []byte {
	var enc ckpt.Enc
	enc.U32(uint32(len(e.actions)))
	for _, ba := range e.actions {
		enc.Bool(ba.modified[rank].Load())
	}
	return enc.B
}

// RestoreRank rolls every bound action's modification flag back for one rank
// and forgets the re-runs the aborted attempt had requested there
// (am.Checkpointer).
func (e *Engine) RestoreRank(rank int, b []byte) error {
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) {
		d.CountIs(1, len(e.actions))
		for _, ba := range e.actions {
			if f := d.Bool(); write {
				ba.modified[rank].Store(f)
				if ba.pending != nil {
					clear(ba.pending[rank])
				}
			}
		}
	})
}
