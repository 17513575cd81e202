package am

import (
	"io"
	"strconv"

	"declpat/internal/obs"
)

// GaugeSnapshot is one gauge reading: the current value and the high-water
// mark since the universe started.
type GaugeSnapshot struct {
	Value, Peak int64
}

// TypeMetrics extends TypeStats with the type's histograms: envelope batch
// size (always collected) and handler latency in nanoseconds (zero unless
// WithTiming is set).
type TypeMetrics struct {
	TypeStats
	BatchSize      obs.HistSnapshot
	HandlerLatency obs.HistSnapshot
}

// Metrics is a full observability snapshot of the universe: aggregated and
// per-rank counters, per-type traffic with histograms, and the substrate
// gauges. Take it at a quiescent point (between epochs or after Run) for
// exact values; concurrent reads are safe but may be slightly torn across
// counters.
type Metrics struct {
	// Transport names the active transport backend ("chan", "sock-tcp",
	// "sock-unix").
	Transport string
	// Counters is the aggregated counter snapshot (same as Stats.Snapshot).
	Counters Snapshot
	// PerRank is the per-rank counter breakdown.
	PerRank []Snapshot
	// Types is the per-message-type traffic, in registration order.
	Types []TypeMetrics
	// InboxDepth is each rank's inbox queue depth (current + peak).
	InboxDepth []GaugeSnapshot
	// CoalesceBuffered is each rank's sampled coalescing-buffer occupancy:
	// messages buffered but not yet shipped, summed over types. Sampled on
	// read (walks the buffers under their locks) so it costs the hot path
	// nothing.
	CoalesceBuffered []int64
	// RelPending is each rank's outstanding-retransmit table size
	// (unacknowledged + delayed envelopes; all zero on the trusted
	// transport).
	RelPending []GaugeSnapshot
	// AckRTT is the ack round-trip histogram in nanoseconds (zero unless
	// WithTiming is set and the transport is reliable).
	AckRTT obs.HistSnapshot
	// Phases is the per-phase epoch duration breakdown aggregated over
	// ranks (phase name -> histogram, durations in ns); nil unless
	// WithTiming is set. RankPhases is the same per rank.
	Phases     map[string]obs.HistSnapshot
	RankPhases []map[string]obs.HistSnapshot
}

// Metrics returns a full observability snapshot. Callable once Run has
// started (the type-dimensioned state is allocated when the type set
// freezes); before that only the counter sections are populated.
func (u *Universe) Metrics() Metrics {
	m := Metrics{
		Transport: u.net.Name(),
		Counters:  u.Stats.Snapshot(),
		PerRank:   u.Stats.PerRank(),
	}
	m.InboxDepth = make([]GaugeSnapshot, len(u.ranks))
	m.CoalesceBuffered = make([]int64, len(u.ranks))
	m.RelPending = make([]GaugeSnapshot, len(u.ranks))
	for i, r := range u.ranks {
		m.InboxDepth[i] = GaugeSnapshot{Value: int64(r.inbox.Len()), Peak: int64(r.inbox.Peak())}
		m.RelPending[i] = GaugeSnapshot{
			Value: u.relPending.ShardValue(i),
			Peak:  u.relPending.ShardMax(i),
		}
		if r.bufs != nil {
			for _, mt := range u.types {
				m.CoalesceBuffered[i] += mt.buffered(r)
			}
		}
	}
	m.Phases = u.phases.Snapshot()
	m.RankPhases = u.RankPhases()
	if u.typeC == nil {
		return m // before Run: no type-dimensioned state yet
	}
	ts := u.TypeStats()
	m.Types = make([]TypeMetrics, len(ts))
	for i := range ts {
		m.Types[i] = TypeMetrics{TypeStats: ts[i], BatchSize: u.batchHist[i].Snapshot()}
		if u.latHist != nil {
			m.Types[i].HandlerLatency = u.latHist[i].Snapshot()
		}
	}
	if u.ackRTT != nil {
		m.AckRTT = u.ackRTT.Snapshot()
	}
	return m
}

// CounterSeries returns the cumulative counter series a live sampler diffs:
// every non-zero substrate counter plus per-type sent/handled/envelope
// counts, keyed by name. Cheap enough to call on a sampling interval (pure
// atomic loads, no locks).
func (u *Universe) CounterSeries() map[string]int64 {
	out := make(map[string]int64, len(u.c.Names()))
	for id, name := range u.c.Names() {
		if v := u.c.Total(id); v != 0 {
			out[name] = v
		}
	}
	if u.typeC != nil {
		for id, name := range u.typeC.Names() {
			if v := u.typeC.Total(id); v != 0 {
				out[name] = v
			}
		}
	}
	return out
}

// WriteOpenMetrics writes the universe's current metrics in the
// OpenMetrics / Prometheus text exposition format: one counter family per
// substrate counter, gauge families with peaks, and the per-phase duration
// histograms in seconds, each labelled with this process's name. Safe to
// call while the universe runs — this is the payload behind a live /metrics
// endpoint (harness.DebugServer.HandleMetrics).
func (u *Universe) WriteOpenMetrics(w io.Writer) error {
	m := u.Metrics()
	om := obs.NewOMWriter(w)
	om.Family("declpat_universe_info", "gauge", "Universe constants: value is always 1, labels carry the configuration.")
	om.Sample("declpat_universe_info", []string{"transport", m.Transport}, 1)
	om.Family("declpat_ranks", "gauge", "Number of ranks in the universe.")
	om.SampleInt("declpat_ranks", nil, int64(u.cfg.Ranks))

	// Counter families, one per non-zero substrate counter. The departure
	// counters get dedicated always-emitted families below; emitting them here
	// too (they appear once non-zero) would duplicate the family.
	process := []string{"process", "coordinator"}
	counters := make(map[string]int64, len(u.c.Names()))
	for id, name := range u.c.Names() {
		if v := u.c.Total(id); v != 0 && name != "clean_departures" && name != "crash_departures" {
			counters[name] = v
		}
	}
	for _, name := range obs.SortedKeys(counters) {
		fam := "declpat_" + obs.MetricName(name) + "_total"
		om.Family(fam, "counter", "Substrate counter "+name+".")
		om.SampleInt(fam, process, counters[name])
	}

	// The outstanding-retransmit gauge: current value and peak as separate
	// series.
	om.Family("declpat_rel_pending", "gauge", "Substrate gauge rel_pending (current value).")
	om.SampleInt("declpat_rel_pending", process, u.relPending.Value())
	om.Family("declpat_rel_pending_peak", "gauge", "Substrate gauge rel_pending (high-water mark).")
	om.SampleInt("declpat_rel_pending_peak", process, u.relPending.Max())

	// Phase histograms: one family labelled by process and phase, nanosecond
	// observations exported in seconds.
	if len(m.Phases) > 0 {
		const fam = "declpat_phase_duration_seconds"
		om.Family(fam, "histogram", "Epoch phase durations by process and phase (collect/build_csr/kernel/emit/barrier).")
		for _, phase := range obs.SortedKeys(m.Phases) {
			om.Hist(fam, []string{"process", "coordinator", "phase", phase}, m.Phases[phase], 1e-9)
		}
	}

	// Departure counters are emitted unconditionally: their zero values are
	// the signal ("no one has died") and the counter loop above only sees
	// non-zero counters.
	om.Family("declpat_clean_departures_total", "counter", "Fleet peers that departed gracefully (goodbye acknowledged).")
	om.SampleInt("declpat_clean_departures_total", nil, m.Counters.CleanDepartures)
	om.Family("declpat_crash_departures_total", "counter", "Fleet peers that died without a goodbye (heartbeat expiry or connection loss).")
	om.SampleInt("declpat_crash_departures_total", nil, m.Counters.CrashDepartures)

	om.Family("declpat_inbox_depth", "gauge", "Per-rank inbox queue depth.")
	for i, g := range m.InboxDepth {
		om.SampleInt("declpat_inbox_depth", []string{"rank", strconv.Itoa(i)}, g.Value)
	}
	return om.Close()
}
