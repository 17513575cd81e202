package obs

// Phase identifies one uniform phase of an epoch. Every algorithm and the
// substrate itself record into the same small taxonomy (the STYLE_ALGO
// phase-prefix discipline), so per-phase cost is comparable across kernels:
//
//	collect   — frontier/seed/contribution gathering before the kernel
//	build_csr — auxiliary-structure construction (CSR caches, buckets)
//	kernel    — the epoch body proper: handler execution until quiescence
//	emit      — result writeback/folds after the kernel
//	barrier   — time blocked in Rank.Barrier (includes collective waits)
//
// Phases are a breakdown, not a strict partition: barrier time spent inside
// an epoch is also part of that epoch's kernel span.
type Phase uint8

const (
	PhaseCollect Phase = iota
	PhaseBuildCSR
	PhaseKernel
	PhaseEmit
	PhaseBarrier
	NumPhases // count sentinel, not a phase
)

var phaseNames = [NumPhases]string{
	PhaseCollect:  "collect",
	PhaseBuildCSR: "build_csr",
	PhaseKernel:   "kernel",
	PhaseEmit:     "emit",
	PhaseBarrier:  "barrier",
}

// String returns the phase's wire/series name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the phase with the given series name, or NumPhases
// when the name is unknown (e.g. a frame from a newer peer).
func PhaseByName(name string) Phase {
	for p, n := range phaseNames {
		if n == name {
			return Phase(p)
		}
	}
	return NumPhases
}

// PhaseBounds are the default duration bucket bounds for phase histograms:
// 256ns doubling up to ~0.5s. Epoch phases on simulated ranks land mid-range;
// the overflow bucket catches wedged epochs.
func PhaseBounds() []int64 { return ExpBounds(256, 21) }

// PhaseSet is one histogram per phase, each sharded per rank. The zero
// value is not usable; a nil *PhaseSet is the disabled state and Observe on
// it is a cheap no-op (callers still guard with their own gate to avoid the
// clock read).
type PhaseSet struct {
	hists [NumPhases]*Histogram
}

// NewPhaseSet allocates per-phase histograms with the given shard count and
// bucket bounds (PhaseBounds() when bounds is empty).
func NewPhaseSet(shards int, bounds ...int64) *PhaseSet {
	if len(bounds) == 0 {
		bounds = PhaseBounds()
	}
	ps := &PhaseSet{}
	for p := range ps.hists {
		ps.hists[p] = NewHistogram(shards, bounds...)
	}
	return ps
}

// Observe records a duration (ns) for a phase on a shard. No-op on nil.
func (ps *PhaseSet) Observe(p Phase, shard int, ns int64) {
	if ps == nil || p >= NumPhases {
		return
	}
	ps.hists[p].Observe(shard, ns)
}

// Histogram returns the histogram backing one phase (nil on a nil set).
func (ps *PhaseSet) Histogram(p Phase) *Histogram {
	if ps == nil || p >= NumPhases {
		return nil
	}
	return ps.hists[p]
}

// Snapshot aggregates every phase across all shards. Keys of the returned
// map are phase names; empty phases are omitted.
func (ps *PhaseSet) Snapshot() map[string]HistSnapshot {
	if ps == nil {
		return nil
	}
	out := make(map[string]HistSnapshot, NumPhases)
	for p := range ps.hists {
		s := ps.hists[p].Snapshot()
		if s.Count > 0 {
			out[Phase(p).String()] = s
		}
	}
	return out
}

// ShardSnapshot returns one shard's (rank's) view of every phase; empty
// phases are omitted.
func (ps *PhaseSet) ShardSnapshot(shard int) map[string]HistSnapshot {
	if ps == nil {
		return nil
	}
	out := make(map[string]HistSnapshot, NumPhases)
	for p := range ps.hists {
		s := ps.hists[p].ShardSnapshot(shard)
		if s.Count > 0 {
			out[Phase(p).String()] = s
		}
	}
	return out
}
