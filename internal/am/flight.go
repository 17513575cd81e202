package am

import "declpat/internal/obs"

// Flight-recorder integration: which trace kinds count as black-box
// landmarks, and how they are mirrored into the recorder. The recorder is
// always-on (it exists precisely for runs where nobody enabled tracing), so
// the set must stay low-rate: epoch boundaries, phase transitions, faults,
// detector waves, and transport trouble — never per-message kinds.

// flightKinds is the landmark bitmask over TraceKind.
const flightKinds = 1<<TraceEpochBegin |
	1<<TraceEpochEnd |
	1<<TracePhase |
	1<<TraceFlush |
	1<<TraceTDWave |
	1<<TraceCrash |
	1<<TracePanic |
	1<<TraceLinkDead |
	1<<TraceEpochAbort |
	1<<TraceWatchdog |
	1<<TraceReconnect |
	1<<TraceHeartbeatMiss

// flightEvent mirrors one landmark trace event into the recorder; the epoch
// marker tracks epoch begins so a dump names the epoch the process died in
// even when tracing is off.
func (u *Universe) flightEvent(rank int, kind TraceKind, arg, arg2, ts, dur int64) {
	switch kind {
	case TraceEpochBegin:
		u.flight.SetEpoch(arg)
	case TracePhase:
		// The span event closes a phase scope; the open-phase cell was set by
		// Rank.Phase and cleared by PhaseScope.End, so nothing to track here.
	}
	u.flight.Record(rank, obs.FlightEvent{
		TS: ts, Dur: dur, Kind: kind.String(), Arg: arg, Arg2: arg2,
	})
}

// FlightRecorder returns the attached recorder (nil unless WithFlightRecorder).
func (u *Universe) FlightRecorder() *obs.FlightRecorder { return u.flight }

// flightPersist persists the black box with the given reason; a no-op
// without a recorder or configured path. Best-effort by design: every caller
// is already on a failure path.
func (u *Universe) flightPersist(reason string) {
	if u.flight != nil {
		u.flight.Persist(reason)
	}
}
