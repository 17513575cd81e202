package am

import (
	"fmt"
	"time"

	"declpat/internal/obs"
)

// Option configures a Universe at construction. New(ranks, opts...) is the
// only constructor; options apply in order over the defaults, so later
// options win, and each option's documentation states its default:
//
//	u := am.New(4, am.WithThreads(2), am.WithFaultPlan(&am.FaultPlan{Drop: 0.05}))
type Option func(*config)

// config is what the options set; newUniverse resolves it once. Each field is
// documented on the option that sets it, except the two only tests set.
type config struct {
	Ranks          int
	ThreadsPerRank int
	CoalesceSize   int
	Detector       DetectorKind
	TraceCapacity  int
	Lineage        LineageMode
	Timing         bool
	FaultPlan      *FaultPlan
	Recovery       bool
	Transport      Transport
	MP             *MPConfig
	Flight         *obs.FlightRecorder

	// MaxRecoveries bounds recovery attempts per epoch (default 8); a fault
	// that persists past the budget (e.g. a deterministic handler panic that
	// recurs on every replay) fails the run.
	MaxRecoveries int
	// Watchdog is a stuck-epoch deadline (default 0: off): when no substrate
	// progress (deliveries, flushes, detector transitions) is observed for
	// it, the run fails with a diagnostic dump of the detector counters and
	// trace rings instead of hanging.
	Watchdog time.Duration
}

// maxTraceRing bounds the per-rank trace ring WithTraceCapacity implies:
// beyond 1<<26 events per rank (~4 GiB of TraceEvent per rank) a capacity is
// assumed to be a units mistake rather than an intent.
const maxTraceRing = 1 << 26

func (c config) withDefaults() config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.ThreadsPerRank < 0 {
		c.ThreadsPerRank = 0
	}
	if c.CoalesceSize <= 0 {
		c.CoalesceSize = 64
	}
	if c.MaxRecoveries <= 0 {
		c.MaxRecoveries = 8
	}
	if c.Transport == nil {
		c.Transport = ChanTransport()
	}
	return c
}

// perRankRing is the trace-ring size each rank gets: TraceCapacity split
// evenly across ranks (minimum 1), 0 when tracing is off. A per-rank size
// above maxTraceRing panics.
func (c config) perRankRing() int {
	if c.TraceCapacity <= 0 {
		return 0
	}
	per := max(c.TraceCapacity/c.Ranks, 1)
	if per > maxTraceRing {
		panic(fmt.Sprintf("am: WithTraceCapacity(%d) gives %d events per rank over %d ranks, above the bound of %d",
			c.TraceCapacity, per, c.Ranks, maxTraceRing))
	}
	return per
}

// New creates a simulated machine of `ranks` distributed-memory nodes
// (minimum 1) configured by opts. Misconfiguration — a fault probability
// outside [0, 1], a fault aimed at a rank that does not exist, a trace ring
// over its bound, a control plane without a socket transport — panics here.
func New(ranks int, opts ...Option) *Universe {
	cfg := config{Ranks: ranks}
	for _, opt := range opts {
		opt(&cfg)
	}
	return newUniverse(cfg)
}

// WithThreads sets the number of message-handler threads per rank (default
// 0). With 0, handlers run only when a rank polls (Flush, TryFinish, or
// end-of-epoch progress), which gives deterministic single-threaded execution
// useful in tests.
func WithThreads(n int) Option { return func(c *config) { c.ThreadsPerRank = n } }

// WithCoalesce sets the default number of messages buffered per (type,
// destination) before an envelope is shipped. 1 disables coalescing; 0 keeps
// the default (64).
func WithCoalesce(n int) Option { return func(c *config) { c.CoalesceSize = n } }

// WithDetector selects the termination-detection protocol (default
// DetectorAtomic).
func WithDetector(d DetectorKind) Option { return func(c *config) { c.Detector = d } }

// WithFaultPlan switches the transport into reliable mode — sequence numbers,
// acks, dedup, retransmit (fault.go, reliable.go) — and injects the plan's
// faults. A zero-valued plan injects nothing but still runs the full
// protocol; nil (the default) keeps the trusted transport, except on a socket
// transport, which always runs reliably.
func WithFaultPlan(fp *FaultPlan) Option { return func(c *config) { c.FaultPlan = fp } }

// WithRecovery enables epoch-granular checkpoint/restart (recovery.go): state
// registered via RegisterCheckpointer is snapshotted at every epoch boundary,
// and a rank fault (injected crash, contained handler panic, dead link) aborts
// the damaged epoch, rolls every rank back to the checkpoint, restarts the
// dead rank, and replays. Without it a rank fault makes Universe.Run return
// an error.
func WithRecovery() Option { return func(c *config) { c.Recovery = true } }

// WithTraceCapacity enables event tracing with per-rank rings totalling n
// events (default 0: off): each rank keeps n/ranks events (minimum 1), and a
// full ring overwrites its oldest events, which the lineage reconstructor
// reports as orphaned parents rather than failing. Traced events carry
// monotonic timestamps; epoch and delivery events become spans. More than
// 2^26 events per rank panics.
func WithTraceCapacity(n int) Option { return func(c *config) { c.TraceCapacity = n } }

// WithLineage sets the causal-lineage mode (LineageMode; default LineageAuto,
// lineage exactly when tracing is on).
func WithLineage(m LineageMode) Option { return func(c *config) { c.Lineage = m } }

// WithTiming enables clock-based latency histograms: handler latency per
// message type, (in reliable mode) ack round-trip time, and the per-rank
// per-phase epoch timers (phase.go). Off by default because it adds two
// monotonic clock reads per delivered envelope (and per phase scope) to the
// hot path.
func WithTiming() Option { return func(c *config) { c.Timing = true } }

// WithTransport selects the message transport backend: ChanTransport (the
// in-process default, zero-copy hand-off) or SockTransport (length-prefixed
// CRC-sealed frames over TCP or Unix-domain sockets, with handshakes,
// heartbeats, and automatic reconnect). A socket backend can lose frames, so
// it always runs the reliable-delivery protocol. A transport value is
// single-use — construct one per universe.
func WithTransport(t Transport) Option { return func(c *config) { c.Transport = t } }

// WithControlPlane runs the universe as one worker process of a
// multi-process SPMD fleet (controlplane.go): it hosts global ranks [mp.Lo,
// mp.Hi) and carries barriers, all-reduces, termination-detector waves and
// fault/recovery coordination over mp.Plane instead of process-local shared
// memory. Requires a socket transport for the data plane (New panics
// otherwise), forces the four-counter detector (the atomic detector reads
// process-local counters), and is mutually exclusive with WithRecovery —
// faults abort the fleet and the launcher drives checkpoint/restart across
// processes instead.
func WithControlPlane(mp MPConfig) Option { return func(c *config) { c.MP = &mp } }

// WithFlightRecorder attaches an always-on black-box flight recorder:
// landmark events — epoch boundaries, phase transitions, faults, recovery,
// control-plane trouble — are mirrored into its bounded rings even when full
// tracing is off, and the substrate persists it at epoch commits and on every
// fault path so a killed process leaves a postmortem dump at most one epoch
// stale.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(c *config) { c.Flight = f }
}
