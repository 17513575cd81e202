package am

import (
	"io"
	"sort"

	"declpat/internal/obs"
)

// typeNameOf resolves a trace event's Arg to a message-type name where the
// kind carries one ("" otherwise). The reliable layer's ack pseudo-type
// (ackTypeID) resolves to "ack".
func (u *Universe) typeNameOf(kind TraceKind, arg int64) string {
	switch kind {
	case TraceShip, TraceDeliver, TraceDrop, TraceDup, TraceDelay,
		TraceRetransmit, TraceCorrupt, TraceDecodeError, TraceSuppress,
		TraceAck, TracePanic, TraceLinkDead, TraceHandler, TraceQueryCross:
		if arg == int64(ackTypeID) {
			return "ack"
		}
		if arg >= 0 && arg < int64(len(u.types)) {
			return u.types[arg].name
		}
	}
	return ""
}

// ExportTrace converts the recorded trace into the interchange form consumed
// by internal/obs (and the declpat-trace CLI): a Meta header plus one Record
// per event, timestamps in monotonic nanoseconds. Per-rank epoch begin/end
// pairs fold into single "epoch" span records; deliver events are spans
// covering decode + dedup + every handler of the batch; handler events
// (lineage) are per-invocation spans carrying their causal id and parent;
// everything else is a point event. Returns a zero Meta and nil records when
// tracing is disabled.
func (u *Universe) ExportTrace(label string) (obs.Meta, []obs.Record) {
	if u.tracer == nil {
		return obs.Meta{}, nil
	}
	typeNames := make([]string, len(u.types))
	for i, mt := range u.types {
		typeNames[i] = mt.name
	}
	meta := obs.Meta{
		Label:   label,
		Ranks:   u.cfg.Ranks,
		Types:   typeNames,
		Dropped: u.TraceDropped(),
	}
	events := u.Trace()
	recs := make([]obs.Record, 0, len(events))
	for _, ev := range events {
		if rec, ok := u.convertEvent(ev); ok {
			recs = append(recs, rec)
		}
	}
	return meta, recs
}

// convertEvent converts one trace event to its interchange record; ok is
// false for events that do not export (epoch begins — the matching end
// carries the whole span; a begin whose end is not in the ring yet has no
// duration to report).
func (u *Universe) convertEvent(ev TraceEvent) (obs.Record, bool) {
	switch ev.Kind {
	case TraceEpochBegin:
		return obs.Record{}, false
	case TraceEpochEnd:
		return obs.Record{
			Kind: "epoch", TS: ev.TS - ev.Dur, Dur: ev.Dur,
			Rank: int(ev.Rank), Arg: ev.Arg, Q: ev.Q,
		}, true
	case TraceDeliver:
		return obs.Record{
			Kind: "deliver", TS: ev.TS - ev.Dur, Dur: ev.Dur,
			Rank: int(ev.Rank), Arg: ev.Arg, Arg2: ev.Arg2, Q: ev.Q,
			Type: u.typeNameOf(ev.Kind, ev.Arg),
		}, true
	case TracePhase:
		return obs.Record{
			Kind: "phase", TS: ev.TS - ev.Dur, Dur: ev.Dur,
			Rank: int(ev.Rank), Arg: ev.Arg, Arg2: ev.Arg2, Q: ev.Q,
			Type: obs.Phase(ev.Arg).String(),
		}, true
	case TraceHandler:
		return obs.Record{
			Kind: "handler", TS: ev.TS - ev.Dur, Dur: ev.Dur,
			Rank: int(ev.Rank), Arg: ev.Arg, Q: ev.Q,
			Type: u.typeNameOf(ev.Kind, ev.Arg),
			ID:   ev.ID, Parent: ev.Parent,
		}, true
	default:
		return obs.Record{
			Kind: ev.Kind.String(), TS: ev.TS,
			Rank: int(ev.Rank), Arg: ev.Arg, Arg2: ev.Arg2, Q: ev.Q,
			Type: u.typeNameOf(ev.Kind, ev.Arg),
		}, true
	}
}

// ExportTraceSince drains trace events appended since the per-rank cursors
// (nil = from the beginning; see obs.Rings.ShardSince) and converts them to
// interchange records, returning the advanced cursors and how many events the
// rings overwrote before this call could read them (a shard's cursor jumping
// past the events it returns). This is the incremental path behind fleet
// trace streaming: a flusher polls cheaply and ships only the new tail, so the
// coordinator's merged timeline stays fresh without re-serializing the whole
// ring. Records are sorted per call; the receiver's merge handles cross-call
// ordering. Returns nil records when tracing is disabled.
func (u *Universe) ExportTraceSince(cursors []int64) ([]obs.Record, []int64, int64) {
	if u.tracer == nil {
		return nil, cursors, 0
	}
	shards := u.tracer.rings.Shards()
	if len(cursors) != shards {
		cursors = make([]int64, shards)
	}
	var recs []obs.Record
	var overwritten int64
	for shard := 0; shard < shards; shard++ {
		evs, next := u.tracer.rings.ShardSince(shard, cursors[shard])
		overwritten += next - cursors[shard] - int64(len(evs))
		cursors[shard] = next
		for _, ev := range evs {
			if rec, ok := u.convertEvent(ev); ok {
				recs = append(recs, rec)
			}
		}
	}
	sortRecords(recs)
	return recs, cursors, overwritten
}

func sortRecords(recs []obs.Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
}

// WriteTraceJSONL exports the recorded trace as JSONL (one meta header line
// plus one record per line) — the interchange format of declpat-trace.
func (u *Universe) WriteTraceJSONL(w io.Writer, label string) error {
	meta, recs := u.ExportTrace(label)
	return obs.WriteJSONL(w, meta, recs)
}

// WriteChromeTrace exports the recorded trace as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one thread row
// per rank, epochs and deliveries as spans, everything else as instants.
func (u *Universe) WriteChromeTrace(w io.Writer, label string) error {
	meta, recs := u.ExportTrace(label)
	return obs.WriteChromeTrace(w, meta, recs)
}
