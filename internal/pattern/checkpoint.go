package pattern

import "declpat/internal/ckpt"

// Epoch-granular checkpoint/restart support (am.Checkpointer). The engine's
// mutable per-rank state outside the user's property maps is each bound
// action's modification flag (the `once` strategy's changed-anything bit).
// Everything else is frozen before Run — compiled actions, bindings, work
// hooks — or keyed on the am epoch-attempt stamp — the send-side filter's
// tables and the coalesced rerun hook's pending words — which a restarted
// process begins afresh. Action-level
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
// (am.Checkpointer).
func (e *Engine) RestoreRank(rank int, b []byte) error {
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) {
		d.CountIs(1, len(e.actions))
		for _, ba := range e.actions {
			if f := d.Bool(); write {
				ba.modified[rank].Store(f)
			}
		}
	})
}
