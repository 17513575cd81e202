package am

import (
	"fmt"

	"declpat/internal/obs"
)

// TraceKind classifies trace events.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceEpochBegin: a rank entered an epoch (Arg = epoch sequence).
	TraceEpochBegin TraceKind = iota
	// TraceEpochEnd: a rank left an epoch (Arg = epoch sequence; Dur = the
	// rank's time inside the epoch, making begin/end a span).
	TraceEpochEnd
	// TraceShip: an envelope was shipped (Arg = message type id,
	// Arg2 = batch length).
	TraceShip
	// TraceDeliver: an envelope was delivered (Arg = message type id,
	// Arg2 = batch length; Dur = time spent delivering the batch —
	// dedup, decode, and every handler invocation).
	TraceDeliver
	// TraceFlush: an explicit Flush (epoch_flush) ran.
	TraceFlush
	// TraceTDWave: a four-counter probe wave completed (Arg = 1 if the
	// wave detected termination).
	TraceTDWave
	// TraceDrop: the fault injector discarded a transmission (Arg =
	// message type id, or -1 for an ack; Arg2 = sequence number).
	TraceDrop
	// TraceDup: the fault injector delivered an envelope twice (Arg =
	// type id, Arg2 = seq).
	TraceDup
	// TraceDelay: the fault injector held an envelope for out-of-order
	// release (Arg = type id, Arg2 = seq).
	TraceDelay
	// TraceRetransmit: the sender retransmitted an unacknowledged
	// envelope (Arg = type id, Arg2 = seq).
	TraceRetransmit
	// TraceCorrupt: a wire envelope failed its checksum at the
	// receiver and was discarded (Arg = type id, Arg2 = seq).
	TraceCorrupt
	// TraceSuppress: the receiver's dedup window discarded a duplicate
	// envelope (Arg = type id, Arg2 = seq).
	TraceSuppress
	// TraceAck: the receiver acknowledged an envelope (Arg = type id,
	// Arg2 = seq).
	TraceAck
	// TraceCrash: a rank died crash-stop (Arg = epoch sequence,
	// Arg2 = FaultKind).
	TraceCrash
	// TracePanic: a message handler panicked and was contained (Arg =
	// message type id).
	TracePanic
	// TraceLinkDead: a link hit its retransmit ceiling and was declared
	// dead (Arg = type id, Arg2 = seq).
	TraceLinkDead
	// TraceEpochAbort: a rank fault aborted the current epoch attempt
	// (Arg = epoch sequence, Arg2 = FaultKind).
	TraceEpochAbort
	// TraceRecover: the universe rolled back to the epoch-boundary
	// checkpoint and restarted the dead rank (Arg = epoch sequence,
	// Arg2 = recovery count for this epoch).
	TraceRecover
	// TraceWatchdog: the stuck-epoch watchdog fired (Arg = epoch
	// sequence).
	TraceWatchdog
	// TraceHandler: one handler invocation completed (Arg = message type
	// id; Dur = handler execution time, so the span covers [TS-Dur, TS]).
	// ID is the invocation's lineage id and Parent the lineage id of the
	// invocation (or epoch-body root) whose send triggered it — recorded
	// only when lineage is on (WithLineage).
	TraceHandler
	// TraceDecodeError: a wire envelope passed its checksum but failed to
	// decode and was discarded unacknowledged (Arg = type id, Arg2 = seq).
	TraceDecodeError
	// TraceReconnect: a socket transport re-established a dead connection
	// (Arg = destination rank, Arg2 = dial attempts the outage took).
	TraceReconnect
	// TraceHeartbeatMiss: a socket link's liveness deadline expired with no
	// frame received; the connection was declared dead (Arg = peer rank).
	TraceHeartbeatMiss
	// TracePhase: a phase scope closed (Arg = obs.Phase id, Arg2 = epoch
	// sequence at close; Dur = the phase's duration, so the span covers
	// [TS-Dur, TS]).
	TracePhase
	// TraceQueryCross: a delivery carried a query-context stamp different
	// from the epoch's current query and was discarded (Arg = message type
	// id, Arg2 = the envelope's query id). Never emitted on a correct
	// substrate; see Rank.EpochCtx.
	TraceQueryCross

	// maxTraceKind is the highest valid TraceKind (tests use it to detect
	// torn/garbage events).
	maxTraceKind = TraceQueryCross
)

func (k TraceKind) String() string {
	switch k {
	case TraceEpochBegin:
		return "epoch-begin"
	case TraceEpochEnd:
		return "epoch-end"
	case TraceShip:
		return "ship"
	case TraceDeliver:
		return "deliver"
	case TraceFlush:
		return "flush"
	case TraceTDWave:
		return "td-wave"
	case TraceDrop:
		return "drop"
	case TraceDup:
		return "dup"
	case TraceDelay:
		return "delay"
	case TraceRetransmit:
		return "retransmit"
	case TraceCorrupt:
		return "corrupt"
	case TraceSuppress:
		return "suppress"
	case TraceAck:
		return "ack"
	case TraceCrash:
		return "crash"
	case TracePanic:
		return "panic"
	case TraceLinkDead:
		return "link-dead"
	case TraceEpochAbort:
		return "abort"
	case TraceRecover:
		return "recover"
	case TraceWatchdog:
		return "watchdog"
	case TraceHandler:
		return "handler"
	case TraceDecodeError:
		return "decode-error"
	case TraceReconnect:
		return "reconnect"
	case TraceHeartbeatMiss:
		return "hb-miss"
	case TracePhase:
		return "phase"
	case TraceQueryCross:
		return "query-cross"
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceEvent is one recorded substrate event. TS is a monotonic nanosecond
// timestamp (see obs.Now); Dur is non-zero for span-closing events
// (TraceEpochEnd, TraceDeliver) and covers [TS-Dur, TS].
type TraceEvent struct {
	Seq  int64 // global order, assigned by Trace()
	TS   int64 // monotonic ns
	Dur  int64 // span length in ns (0 for point events)
	Rank int32
	Kind TraceKind
	Arg  int64
	Arg2 int64
	// Q is the query context the event was recorded under (0 outside any
	// query epoch — see Rank.EpochCtx). It is what keeps interleaved queries
	// apart in exported timelines and the phase/epoch tables.
	Q int64
	// Causal lineage (TraceHandler only, zero elsewhere): ID identifies
	// this handler invocation, Parent the invocation or epoch-body root
	// whose send triggered it. See internal/obs lineage helpers for the id
	// scheme.
	ID     uint64
	Parent uint64
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("#%d r%d %s arg=%d arg2=%d", e.Seq, e.Rank, e.Kind, e.Arg, e.Arg2)
}

// tracer records events into per-rank rings (obs.Rings): each rank appends
// under its own shard's lock, so recording never contends across ranks and —
// unlike the old single atomic-indexed global ring — a concurrent Trace()
// reads fully written events only (no torn reads). Each rank's ring holds
// perRank events (WithTraceCapacity split evenly across ranks); when
// a ring fills, its oldest events are overwritten (the tail of a long run is
// usually what matters).
type tracer struct {
	rings *obs.Rings[TraceEvent]
}

func newTracer(perRank, ranks int) *tracer {
	return &tracer{rings: obs.NewRings[TraceEvent](ranks, perRank)}
}

func (t *tracer) record(rank int, kind TraceKind, arg, arg2, ts, dur, q int64) {
	t.rings.Append(rank, TraceEvent{
		TS: ts, Dur: dur, Rank: int32(rank), Kind: kind, Arg: arg, Arg2: arg2, Q: q,
	})
}

// trace records a point event if tracing is enabled. Landmark kinds
// (flightKinds) are additionally mirrored into the flight recorder, which is
// on even when the trace rings are off — the gate stays two nil checks and a
// bit test for the high-rate kinds (ship/deliver/ack), which never touch the
// recorder.
func (u *Universe) trace(rank int, kind TraceKind, arg, arg2 int64) {
	landmark := u.flight != nil && flightKinds&(1<<kind) != 0
	if u.tracer == nil && !landmark {
		return
	}
	ts := obs.Now()
	if u.tracer != nil {
		u.tracer.record(rank, kind, arg, arg2, ts, 0, u.curQuery.Load())
	}
	if landmark {
		u.flightEvent(rank, kind, arg, arg2, ts, 0)
	}
}

// traceSpan records a span-closing event (timestamps supplied by the caller)
// if tracing is enabled; landmark kinds also land in the flight recorder.
func (u *Universe) traceSpan(rank int, kind TraceKind, arg, arg2, ts, dur int64) {
	if u.tracer != nil {
		u.tracer.record(rank, kind, arg, arg2, ts, dur, u.curQuery.Load())
	}
	if u.flight != nil && flightKinds&(1<<kind) != 0 {
		u.flightEvent(rank, kind, arg, arg2, ts, dur)
	}
}

// traceHandler records one handler invocation's lineage span (timestamps
// supplied by the caller; the caller checks that tracing is enabled).
func (u *Universe) traceHandler(rank int, typeID int64, id, parent uint64, ts, dur int64) {
	u.tracer.rings.Append(rank, TraceEvent{
		TS: ts, Dur: dur, Rank: int32(rank), Kind: TraceHandler, Arg: typeID,
		Q: u.curQuery.Load(), ID: id, Parent: parent,
	})
}

// Trace returns the recorded events merged across ranks in timestamp order
// (oldest retained first), with Seq assigned in that order. It is safe to
// call concurrently with recording — each rank's ring is read under its lock
// — though a call at a quiescent point (after Run or between epochs) sees a
// complete picture. Returns nil when tracing is disabled.
func (u *Universe) Trace() []TraceEvent {
	if u.tracer == nil {
		return nil
	}
	return u.tracer.rings.Merged(func(a, b TraceEvent) bool { return a.TS < b.TS },
		func(i int, ev TraceEvent) TraceEvent {
			ev.Seq = int64(i)
			return ev
		})
}

// TraceDropped reports how many events were overwritten by the per-rank
// rings.
func (u *Universe) TraceDropped() int64 {
	if u.tracer == nil {
		return 0
	}
	return u.tracer.rings.Dropped()
}
