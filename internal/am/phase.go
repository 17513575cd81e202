package am

import "declpat/internal/obs"

// PhaseScope times one phase of an epoch on one rank. It is a plain value:
// opening a scope when phase timing and tracing are both disabled returns
// the zero scope without reading the clock, and End on the zero scope is a
// no-op — the hot path pays one nil check each way and allocates nothing.
//
// Usage follows the uniform kernel template:
//
//	ph := r.Phase(obs.PhaseCollect)
//	... gather the frontier ...
//	ph.End()
//
// The substrate opens kernel and barrier scopes itself;
// strategies and algorithms add collect / build_csr / emit around their
// rank-local sections. Phases are a breakdown of where time goes, not a
// strict partition: a barrier wait inside an epoch is counted both
// in the barrier phase and in the enclosing kernel span.
type PhaseScope struct {
	r     *Rank
	phase obs.Phase
	start int64
}

// Phase opens a phase scope on this rank. Gated like WithTiming: with
// timing, tracing, and the flight recorder all off the scope is inert and
// free. With a flight recorder attached the scope also marks the rank's
// open-phase cell, so a process killed mid-phase dumps with the phase named.
func (r *Rank) Phase(p obs.Phase) PhaseScope {
	u := r.u
	if u.phases == nil && u.tracer == nil && u.flight == nil {
		return PhaseScope{}
	}
	s := PhaseScope{r: r, phase: p, start: obs.Now()}
	if u.flight != nil {
		u.flight.PhaseEnter(r.id, p, s.start)
	}
	return s
}

// End closes the scope: the elapsed time lands in the rank's per-phase
// histogram (WithTiming) and, when tracing or the flight recorder is on,
// as a TracePhase span (Arg = phase id, Arg2 = epoch sequence at close).
func (s PhaseScope) End() {
	if s.r == nil {
		return
	}
	r, u := s.r, s.r.u
	end := obs.Now()
	dur := end - s.start
	u.phases.Observe(s.phase, r.id, dur)
	if u.flight != nil {
		u.flight.PhaseExit(r.id)
	}
	if u.tracer != nil || u.flight != nil {
		u.traceSpan(r.id, TracePhase, int64(s.phase), u.epochSeq.Load(), end, dur)
	}
}

// Phases returns the per-phase duration histograms aggregated over ranks
// (phase name -> snapshot), or nil unless WithTiming is set.
func (u *Universe) Phases() map[string]obs.HistSnapshot { return u.phases.Snapshot() }

// RankPhases returns each rank's per-phase duration histograms, or nil
// unless WithTiming is set.
func (u *Universe) RankPhases() []map[string]obs.HistSnapshot {
	if u.phases == nil {
		return nil
	}
	out := make([]map[string]obs.HistSnapshot, u.cfg.Ranks)
	for i := range out {
		out[i] = u.phases.ShardSnapshot(i)
	}
	return out
}
