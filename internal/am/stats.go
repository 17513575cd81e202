package am

import "declpat/internal/obs"

// Counter ids of the universe-wide message accounting. The write path is
// sharded per rank (see internal/obs): every handler thread updates its own
// rank's padded shard, so counting never contends across ranks; reads
// aggregate over shards and should happen at quiescent points (between
// epochs or after Run) for exact values.
const (
	cMsgsSent = iota
	cEnvelopes
	cBytesSent
	cWireBytes
	cHandlersRun
	cCtrlMsgs
	cEpochs
	cFlushes
	cTDWaves
	cEnvelopesDropped
	cEnvelopesDuplicated
	cEnvelopesDelayed
	cRetransmits
	cDupsSuppressed
	cCorruptionsDetected
	cDecodeErrors
	cAckMsgs
	cAcksDropped
	cRankCrashes
	cHandlerPanics
	cLinkDeaths
	cEpochAborts
	cRecoveries
	cCheckpoints
	cWatchdogFires
	cReconnects
	cHeartbeatMisses
	cFramesRequeued
	cFramesDropped
	cCleanDepartures
	cCrashDepartures
	cQueryMismatches
	numCounters
)

// counterNames are the exported metric names, indexed by counter id.
var counterNames = [numCounters]string{
	"msgs_sent", "envelopes", "bytes_sent", "wire_bytes",
	"handlers_run", "ctrl_msgs", "epochs", "flushes", "td_waves",
	"envelopes_dropped", "envelopes_duplicated", "envelopes_delayed",
	"retransmits", "dups_suppressed", "corruptions_detected",
	"decode_errors",
	"ack_msgs", "acks_dropped",
	"rank_crashes", "handler_panics", "link_deaths",
	"epoch_aborts", "recoveries", "checkpoints", "watchdog_fires",
	"reconnects", "heartbeat_misses", "frames_requeued", "frames_dropped",
	"clean_departures", "crash_departures",
	"query_mismatches",
}

// Stats is the read-side view of the universe's message accounting. It used
// to be a block of globally shared atomics — the one cache line every
// handler thread in the machine contended on; it is now backed by per-rank
// shards and aggregates on read. Each accessor returns the sum over shards;
// Snapshot returns all counters at once.
type Stats struct {
	c *obs.Counters
}

// Counters exposes the backing sharded counter set (per-rank reads,
// expvar publishing).
func (s *Stats) Counters() *obs.Counters { return s.c }

// MsgsSent counts user-level messages accepted by Send, counted when their
// envelope ships: exact at quiescent points (between epochs, after Run).
func (s *Stats) MsgsSent() int64 { return s.c.Total(cMsgsSent) }

// Envelopes counts coalesced batches shipped between ranks.
func (s *Stats) Envelopes() int64 { return s.c.Total(cEnvelopes) }

// BytesSent counts payload bytes (message size × messages, exact).
func (s *Stats) BytesSent() int64 { return s.c.Total(cBytesSent) }

// WireBytes counts serialized envelope bytes for message types using the
// wire transport (0 for in-memory transport).
func (s *Stats) WireBytes() int64 { return s.c.Total(cWireBytes) }

// HandlersRun counts individual message handler invocations, added per
// delivered batch after its last handler returns.
func (s *Stats) HandlersRun() int64 { return s.c.Total(cHandlersRun) }

// CtrlMsgs counts termination-detection control messages (four-counter
// detector only; the atomic detector sends none).
func (s *Stats) CtrlMsgs() int64 { return s.c.Total(cCtrlMsgs) }

// Epochs counts completed epochs.
func (s *Stats) Epochs() int64 { return s.c.Total(cEpochs) }

// Flushes counts explicit Flush (epoch_flush) calls.
func (s *Stats) Flushes() int64 { return s.c.Total(cFlushes) }

// TDWaves counts four-counter probe waves.
func (s *Stats) TDWaves() int64 { return s.c.Total(cTDWaves) }

// EnvelopesDropped counts data-envelope transmissions the injector discarded
// in flight.
func (s *Stats) EnvelopesDropped() int64 { return s.c.Total(cEnvelopesDropped) }

// EnvelopesDuplicated counts envelopes the injector delivered twice.
func (s *Stats) EnvelopesDuplicated() int64 { return s.c.Total(cEnvelopesDuplicated) }

// EnvelopesDelayed counts envelopes held back and released out of order.
func (s *Stats) EnvelopesDelayed() int64 { return s.c.Total(cEnvelopesDelayed) }

// Retransmits counts envelope retransmissions (attempts beyond the first).
func (s *Stats) Retransmits() int64 { return s.c.Total(cRetransmits) }

// DupsSuppressed counts envelopes the receiver's dedup window discarded.
func (s *Stats) DupsSuppressed() int64 { return s.c.Total(cDupsSuppressed) }

// CorruptionsDetected counts wire envelopes whose checksum failed at the
// receiver (discarded; recovered by retransmit).
func (s *Stats) CorruptionsDetected() int64 { return s.c.Total(cCorruptionsDetected) }

// DecodeErrors counts wire envelopes that passed the checksum but failed to
// decode (discarded unacknowledged; recovered by retransmit).
func (s *Stats) DecodeErrors() int64 { return s.c.Total(cDecodeErrors) }

// AckMsgs counts acknowledgement envelopes actually sent.
func (s *Stats) AckMsgs() int64 { return s.c.Total(cAckMsgs) }

// AcksDropped counts acknowledgements the injector discarded.
func (s *Stats) AcksDropped() int64 { return s.c.Total(cAcksDropped) }

// RankCrashes counts injected crash-stop rank failures (FaultPlan.Crashes).
func (s *Stats) RankCrashes() int64 { return s.c.Total(cRankCrashes) }

// HandlerPanics counts message-handler panics contained as rank faults.
func (s *Stats) HandlerPanics() int64 { return s.c.Total(cHandlerPanics) }

// LinkDeaths counts links declared dead at the retransmit ceiling.
func (s *Stats) LinkDeaths() int64 { return s.c.Total(cLinkDeaths) }

// EpochAborts counts epoch attempts aborted by a rank fault.
func (s *Stats) EpochAborts() int64 { return s.c.Total(cEpochAborts) }

// Recoveries counts completed epoch rollback-and-replay cycles.
func (s *Stats) Recoveries() int64 { return s.c.Total(cRecoveries) }

// Checkpoints counts per-rank epoch-boundary snapshots (WithRecovery).
func (s *Stats) Checkpoints() int64 { return s.c.Total(cCheckpoints) }

// WatchdogFires counts stuck-epoch watchdog activations (at most one per
// run; the watchdog fault is fatal).
func (s *Stats) WatchdogFires() int64 { return s.c.Total(cWatchdogFires) }

// Reconnects counts successful link re-establishments by a socket
// transport after a connection died (always 0 on the in-process backend).
func (s *Stats) Reconnects() int64 { return s.c.Total(cReconnects) }

// HeartbeatMisses counts liveness-deadline expiries on a socket transport's
// receive side: no frame (data or heartbeat) arrived on a link within the
// deadline, so the connection was declared dead and closed.
func (s *Stats) HeartbeatMisses() int64 { return s.c.Total(cHeartbeatMisses) }

// FramesRequeued counts unacknowledged envelopes marked due-now after a
// reconnect, replaying frames lost in the dead connection through the
// normal retransmit path.
func (s *Stats) FramesRequeued() int64 { return s.c.Total(cFramesRequeued) }

// FramesDropped counts frames a socket transport discarded at the sender —
// link down, mid-reconnect, black-holed by the socket fault schedule, or a
// write error; the reliable layer recovers every one of them.
func (s *Stats) FramesDropped() int64 { return s.c.Total(cFramesDropped) }

// CleanDepartures counts fleet peers that left gracefully (goodbye frame
// acknowledged before the connection closed) in a multi-process run.
func (s *Stats) CleanDepartures() int64 { return s.c.Total(cCleanDepartures) }

// CrashDepartures counts fleet peers that died without a goodbye (heartbeat
// expiry or connection loss) in a multi-process run.
func (s *Stats) CrashDepartures() int64 { return s.c.Total(cCrashDepartures) }

// QueryMismatches counts deliveries discarded because their envelope's query
// context did not match the running epoch's (cross-talk between multiplexed
// queries; see Rank.EpochCtx). Always 0 on a correct substrate.
func (s *Stats) QueryMismatches() int64 { return s.c.Total(cQueryMismatches) }

// Snapshot is a plain-value copy of Stats, convenient for diffing across an
// experiment phase.
type Snapshot struct {
	MsgsSent                               int64
	Envelopes, BytesSent, WireBytes        int64
	HandlersRun                            int64
	CtrlMsgs, Epochs, Flushes, TDWaves     int64
	EnvelopesDropped, EnvelopesDuplicated  int64
	EnvelopesDelayed, Retransmits          int64
	DupsSuppressed, CorruptionsDetected    int64
	DecodeErrors                           int64
	AckMsgs, AcksDropped                   int64
	RankCrashes, HandlerPanics, LinkDeaths int64
	EpochAborts, Recoveries, Checkpoints   int64
	WatchdogFires                          int64
	Reconnects, HeartbeatMisses            int64
	FramesRequeued, FramesDropped          int64
	CleanDepartures, CrashDepartures       int64
	QueryMismatches                        int64
}

// snapshotOf builds a Snapshot from a per-counter read function.
func snapshotOf(get func(id int) int64) Snapshot {
	return Snapshot{
		MsgsSent:    get(cMsgsSent),
		Envelopes:   get(cEnvelopes),
		BytesSent:   get(cBytesSent),
		WireBytes:   get(cWireBytes),
		HandlersRun: get(cHandlersRun),
		CtrlMsgs:    get(cCtrlMsgs),
		Epochs:      get(cEpochs),
		Flushes:     get(cFlushes),
		TDWaves:     get(cTDWaves),

		EnvelopesDropped:    get(cEnvelopesDropped),
		EnvelopesDuplicated: get(cEnvelopesDuplicated),
		EnvelopesDelayed:    get(cEnvelopesDelayed),
		Retransmits:         get(cRetransmits),
		DupsSuppressed:      get(cDupsSuppressed),
		CorruptionsDetected: get(cCorruptionsDetected),
		DecodeErrors:        get(cDecodeErrors),
		AckMsgs:             get(cAckMsgs),
		AcksDropped:         get(cAcksDropped),

		RankCrashes:   get(cRankCrashes),
		HandlerPanics: get(cHandlerPanics),
		LinkDeaths:    get(cLinkDeaths),
		EpochAborts:   get(cEpochAborts),
		Recoveries:    get(cRecoveries),
		Checkpoints:   get(cCheckpoints),
		WatchdogFires: get(cWatchdogFires),

		Reconnects:      get(cReconnects),
		HeartbeatMisses: get(cHeartbeatMisses),
		FramesRequeued:  get(cFramesRequeued),
		FramesDropped:   get(cFramesDropped),

		CleanDepartures: get(cCleanDepartures),
		CrashDepartures: get(cCrashDepartures),

		QueryMismatches: get(cQueryMismatches),
	}
}

// Snapshot returns an aggregated copy of every counter, consistent enough
// for use at quiescent points (between epochs).
func (s *Stats) Snapshot() Snapshot {
	return snapshotOf(s.c.Total)
}

// PerRank returns one Snapshot per rank: the per-rank accounting (who sent,
// who handled).
func (s *Stats) PerRank() []Snapshot {
	out := make([]Snapshot, s.c.Shards())
	for i := range out {
		out[i] = snapshotOf(func(id int) int64 { return s.c.ShardTotal(i, id) })
	}
	return out
}

// Sub returns s - o, counter by counter.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		MsgsSent:    s.MsgsSent - o.MsgsSent,
		Envelopes:   s.Envelopes - o.Envelopes,
		BytesSent:   s.BytesSent - o.BytesSent,
		WireBytes:   s.WireBytes - o.WireBytes,
		HandlersRun: s.HandlersRun - o.HandlersRun,
		CtrlMsgs:    s.CtrlMsgs - o.CtrlMsgs,
		Epochs:      s.Epochs - o.Epochs,
		Flushes:     s.Flushes - o.Flushes,
		TDWaves:     s.TDWaves - o.TDWaves,

		EnvelopesDropped:    s.EnvelopesDropped - o.EnvelopesDropped,
		EnvelopesDuplicated: s.EnvelopesDuplicated - o.EnvelopesDuplicated,
		EnvelopesDelayed:    s.EnvelopesDelayed - o.EnvelopesDelayed,
		Retransmits:         s.Retransmits - o.Retransmits,
		DupsSuppressed:      s.DupsSuppressed - o.DupsSuppressed,
		CorruptionsDetected: s.CorruptionsDetected - o.CorruptionsDetected,
		DecodeErrors:        s.DecodeErrors - o.DecodeErrors,
		AckMsgs:             s.AckMsgs - o.AckMsgs,
		AcksDropped:         s.AcksDropped - o.AcksDropped,

		RankCrashes:   s.RankCrashes - o.RankCrashes,
		HandlerPanics: s.HandlerPanics - o.HandlerPanics,
		LinkDeaths:    s.LinkDeaths - o.LinkDeaths,
		EpochAborts:   s.EpochAborts - o.EpochAborts,
		Recoveries:    s.Recoveries - o.Recoveries,
		Checkpoints:   s.Checkpoints - o.Checkpoints,
		WatchdogFires: s.WatchdogFires - o.WatchdogFires,

		Reconnects:      s.Reconnects - o.Reconnects,
		HeartbeatMisses: s.HeartbeatMisses - o.HeartbeatMisses,
		FramesRequeued:  s.FramesRequeued - o.FramesRequeued,
		FramesDropped:   s.FramesDropped - o.FramesDropped,

		CleanDepartures: s.CleanDepartures - o.CleanDepartures,
		CrashDepartures: s.CrashDepartures - o.CrashDepartures,

		QueryMismatches: s.QueryMismatches - o.QueryMismatches,
	}
}
