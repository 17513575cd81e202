package obs

import (
	"fmt"
	"sort"
	"time"

	"declpat/internal/harness"
)

// Analyze derives the standard report from a trace export: a per-epoch
// summary, handler-latency percentiles per message type (when the trace
// contains deliver spans), and a per-rank load table. It is the engine behind
// cmd/declpat-trace.
func Analyze(meta Meta, recs []Record) []*harness.Table {
	tables := []*harness.Table{EpochSummary(meta, recs)}
	if lat := HandlerLatency(meta, recs); lat.Rows() > 0 {
		tables = append(tables, lat)
	}
	tables = append(tables, RankLoad(meta, recs))
	return tables
}

// PhaseTables derives the phase-timer report from a trace export: the
// per-epoch breakdown across phases and the per-rank phase load. Both are
// empty when the trace carries no phase spans (captured with Timing off).
func PhaseTables(meta Meta, recs []Record) []*harness.Table {
	return []*harness.Table{PhaseBreakdown(meta, recs), RankPhaseLoad(meta, recs)}
}

// phaseDist accumulates one cell of the phase tables: all span durations
// for a (group, phase) pair.
type phaseDist struct {
	ds    []int64
	total int64
}

func (d *phaseDist) add(ns int64) { d.ds = append(d.ds, ns); d.total += ns }

func (d *phaseDist) row(t *harness.Table, phase string, first ...any) {
	sort.Slice(d.ds, func(i, j int) bool { return d.ds[i] < d.ds[j] })
	t.Add(append(first, phase, len(d.ds), time.Duration(d.total),
		percentile(d.ds, 0.50), percentile(d.ds, 0.95),
		time.Duration(d.ds[len(d.ds)-1]))...)
}

// queryLabel renders a query-context id for the tables: "-" for the untagged
// context so single-query traces stay visually quiet.
func queryLabel(q int64) any {
	if q == 0 {
		return "-"
	}
	return q
}

// PhaseBreakdown reports, per (query, epoch), the distribution of each
// phase's spans across ranks: span count, total time, p50/p95/max. Phase
// spans carry the epoch sequence observed at span close (Arg2), so pre-epoch
// phases (seed collection, bucket builds) attribute to the epoch they feed.
// Grouping by the query context (Record.Q) keeps interleaved queries on a
// resident universe apart instead of silently merging their timelines; the
// untagged context renders as "-".
func PhaseBreakdown(meta Meta, recs []Record) *harness.Table {
	type key struct {
		q     int64
		epoch int64
		phase string
	}
	cells := map[key]*phaseDist{}
	for _, r := range recs {
		if r.Kind != "phase" {
			continue
		}
		k := key{q: r.Q, epoch: r.Arg2, phase: r.Type}
		d := cells[k]
		if d == nil {
			d = &phaseDist{}
			cells[k] = d
		}
		d.add(r.Dur)
	}
	keys := make([]key, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return PhaseByName(keys[i].phase) < PhaseByName(keys[j].phase)
	})
	t := harness.NewTable("per-epoch phase breakdown",
		"query", "epoch", "phase", "spans", "total", "p50", "p95", "max")
	for _, k := range keys {
		cells[k].row(t, k.phase, queryLabel(k.q), k.epoch)
	}
	return t
}

// RankPhaseLoad reports each rank's time per phase over the whole trace —
// the imbalance view: a rank whose kernel total towers over the others is
// the straggler.
func RankPhaseLoad(meta Meta, recs []Record) *harness.Table {
	type key struct {
		rank  int
		phase string
	}
	cells := map[key]*phaseDist{}
	for _, r := range recs {
		if r.Kind != "phase" {
			continue
		}
		k := key{rank: r.Rank, phase: r.Type}
		d := cells[k]
		if d == nil {
			d = &phaseDist{}
			cells[k] = d
		}
		d.add(r.Dur)
	}
	keys := make([]key, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return PhaseByName(keys[i].phase) < PhaseByName(keys[j].phase)
	})
	t := harness.NewTable("per-rank phase load",
		"rank", "phase", "spans", "total", "p50", "p95", "max")
	for _, k := range keys {
		cells[k].row(t, k.phase, k.rank)
	}
	return t
}

// epochKey locates one rank's participation in one epoch.
type epochSpan struct {
	seq      int64
	ts, done int64 // [ts, done) in trace time
}

// epochIndex builds, per rank, the sorted list of epoch spans, so point
// events can be attributed to the epoch their rank was in when they fired.
func epochIndex(meta Meta, recs []Record) [][]epochSpan {
	idx := make([][]epochSpan, meta.Ranks)
	for _, r := range recs {
		if r.Kind != "epoch" || r.Rank >= meta.Ranks {
			continue
		}
		idx[r.Rank] = append(idx[r.Rank], epochSpan{seq: r.Arg, ts: r.TS, done: r.TS + r.Dur})
	}
	for _, spans := range idx {
		sort.Slice(spans, func(i, j int) bool { return spans[i].ts < spans[j].ts })
	}
	return idx
}

// epochOf returns the epoch sequence enclosing ts on rank, or -1.
func epochOf(idx [][]epochSpan, rank int, ts int64) int64 {
	if rank >= len(idx) {
		return -1
	}
	spans := idx[rank]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].done > ts })
	if i < len(spans) && spans[i].ts <= ts {
		return spans[i].seq
	}
	return -1
}

// epochAgg accumulates one epoch's cross-rank totals.
type epochAgg struct {
	q                                 int64
	seq                               int64
	dur                               int64 // max over ranks
	msgs, envelopes, delivered        int64
	tdWaves, flushes                  int64
	retransmits, drops, acks, corrupt int64
	decodeErrs, reconnects, hbMiss    int64
	faults, aborts                    int64
}

// EpochSummary aggregates the trace into one row per (query, epoch): message
// and envelope volume, termination-detection waves, retransmit and transport
// traffic, and faults, with the epoch duration taken as the slowest rank's
// span. Epochs on a resident universe are globally serialized but belong to
// interleaved queries; grouping by the query context (Record.Q) keeps each
// query's epochs on their own rows instead of silently merging the
// timelines.
func EpochSummary(meta Meta, recs []Record) *harness.Table {
	type key struct{ q, seq int64 }
	idx := epochIndex(meta, recs)
	bysSeq := map[key]*epochAgg{}
	get := func(q, seq int64) *epochAgg {
		k := key{q, seq}
		a := bysSeq[k]
		if a == nil {
			a = &epochAgg{q: q, seq: seq}
			bysSeq[k] = a
		}
		return a
	}
	for _, r := range recs {
		if r.Kind == "epoch" {
			a := get(r.Q, r.Arg)
			if r.Dur > a.dur {
				a.dur = r.Dur
			}
			continue
		}
		// Fault-path events carry their epoch sequence in Arg, so they
		// attribute exactly even when the epoch never completed (a failed
		// run has no enclosing epoch span to look up).
		switch r.Kind {
		case "crash", "watchdog":
			a := get(r.Q, r.Arg)
			a.faults++
			continue
		case "abort":
			get(r.Q, r.Arg).aborts++
			continue
		}
		seq := epochOf(idx, r.Rank, r.TS)
		if seq < 0 {
			continue
		}
		a := get(r.Q, seq)
		switch r.Kind {
		case "panic", "link-dead":
			// These carry the message type in Arg; attribute by span. The
			// crash they trigger is already counted above, so they only
			// add context within completed epochs.
			a.faults++
		case "ship":
			a.envelopes++
			a.msgs += r.Arg2
		case "deliver":
			a.delivered += r.Arg2
		case "td-wave":
			a.tdWaves++
		case "flush":
			a.flushes++
		case "retransmit":
			a.retransmits++
		case "drop":
			a.drops++
		case "ack":
			a.acks++
		case "corrupt":
			a.corrupt++
		case "decode-error":
			a.decodeErrs++
		case "reconnect":
			a.reconnects++
		case "hb-miss":
			a.hbMiss++
		}
	}
	keys := make([]key, 0, len(bysSeq))
	for k := range bysSeq {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].seq != keys[j].seq {
			return keys[i].seq < keys[j].seq
		}
		return keys[i].q < keys[j].q
	})
	t := harness.NewTable("per-epoch summary",
		"query", "epoch", "duration", "messages", "envelopes", "delivered", "td-waves", "flushes", "retransmits", "drops", "acks",
		"corrupt", "decode-err", "reconn", "hb-miss",
		"faults", "aborts")
	for _, k := range keys {
		a := bysSeq[k]
		t.Add(queryLabel(a.q), a.seq, time.Duration(a.dur), a.msgs, a.envelopes, a.delivered,
			a.tdWaves, a.flushes, a.retransmits, a.drops, a.acks,
			a.corrupt, a.decodeErrs, a.reconnects, a.hbMiss,
			a.faults, a.aborts)
	}
	return t
}

// percentile returns the q-quantile of sorted (ascending) ns durations.
func percentile(sorted []int64, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return time.Duration(sorted[i-1])
}

// HandlerLatency reports exact handler-latency percentiles per message type,
// computed from deliver spans (envelope delivery: dedup + handlers for the
// whole batch). Returns an empty table when the trace has no timed delivers.
func HandlerLatency(meta Meta, recs []Record) *harness.Table {
	byType := map[string][]int64{}
	batch := map[string]int64{}
	for _, r := range recs {
		if r.Kind != "deliver" || r.Dur <= 0 {
			continue
		}
		name := r.Type
		if name == "" {
			name = fmt.Sprintf("type-%d", r.Arg)
		}
		byType[name] = append(byType[name], r.Dur)
		batch[name] += r.Arg2
	}
	names := make([]string, 0, len(byType))
	for n := range byType {
		names = append(names, n)
	}
	sort.Strings(names)
	t := harness.NewTable("handler latency per message type (envelope delivery spans)",
		"type", "envelopes", "messages", "p50", "p90", "p99", "max")
	for _, n := range names {
		ds := byType[n]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		t.Add(n, len(ds), batch[n],
			percentile(ds, 0.50), percentile(ds, 0.90), percentile(ds, 0.99),
			time.Duration(ds[len(ds)-1]))
	}
	return t
}

// RankLoad reports per-rank traffic and handler time, plus the load-imbalance
// factor (slowest rank's handler time over the mean — 1.00 is perfectly
// balanced). Without deliver spans the imbalance falls back to delivered
// message counts.
func RankLoad(meta Meta, recs []Record) *harness.Table {
	type load struct {
		events, sent, envelopes, delivered, handlerNs int64
	}
	loads := make([]load, meta.Ranks)
	for _, r := range recs {
		if r.Rank >= meta.Ranks {
			continue
		}
		l := &loads[r.Rank]
		l.events++
		switch r.Kind {
		case "ship":
			l.sent += r.Arg2
			l.envelopes++
		case "deliver":
			l.delivered += r.Arg2
			l.handlerNs += r.Dur
		}
	}
	t := harness.NewTable("per-rank load",
		"rank", "events", "msgs-sent", "envelopes", "msgs-delivered", "handler-time")
	var totalNs, totalDelivered, maxNs, maxDelivered int64
	for i, l := range loads {
		t.Add(i, l.events, l.sent, l.envelopes, l.delivered, time.Duration(l.handlerNs))
		totalNs += l.handlerNs
		totalDelivered += l.delivered
		if l.handlerNs > maxNs {
			maxNs = l.handlerNs
		}
		if l.delivered > maxDelivered {
			maxDelivered = l.delivered
		}
	}
	if meta.Ranks > 0 {
		imb := "-"
		if totalNs > 0 {
			imb = fmt.Sprintf("%.2fx", float64(maxNs)/(float64(totalNs)/float64(meta.Ranks)))
		} else if totalDelivered > 0 {
			imb = fmt.Sprintf("%.2fx", float64(maxDelivered)/(float64(totalDelivered)/float64(meta.Ranks)))
		}
		t.Add("imbalance", "-", "-", "-", "-", imb)
	}
	return t
}
