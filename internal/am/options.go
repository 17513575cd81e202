package am

import (
	"time"

	"declpat/internal/obs"
)

// Option configures a Universe at construction. Options are applied in order
// over the defaults, so later options win; the zero behaviour of every knob
// is documented on the corresponding Config field.
//
// New(ranks, opts...) is the preferred constructor. The Config struct form
// (NewUniverse) keeps working for existing callers, but it is a grow-only
// literal — every new knob is a new field — whereas options let call sites
// name exactly the knobs they set:
//
//	u := am.New(4, am.WithThreads(2), am.WithFaultPlan(&am.FaultPlan{Drop: 0.05}))
type Option func(*Config)

// New creates a simulated machine of `ranks` ranks configured by opts.
func New(ranks int, opts ...Option) *Universe {
	cfg := Config{Ranks: ranks}
	for _, opt := range opts {
		opt(&cfg)
	}
	return NewUniverse(cfg)
}

// WithConfig applies a whole Config value, keeping the ranks passed to New.
// It is the migration bridge for call sites (the experiment harness in
// particular) that still assemble a Config programmatically before handing it
// to the constructor; new code should name individual With* options instead.
func WithConfig(cfg Config) Option {
	return func(c *Config) {
		ranks := c.Ranks
		*c = cfg
		c.Ranks = ranks
	}
}

// WithThreads sets the number of message-handler threads per rank
// (Config.ThreadsPerRank). 0 gives deterministic poll-driven handling.
func WithThreads(n int) Option { return func(c *Config) { c.ThreadsPerRank = n } }

// WithCoalesce sets the default coalescing factor (Config.CoalesceSize).
func WithCoalesce(n int) Option { return func(c *Config) { c.CoalesceSize = n } }

// WithDetector selects the termination-detection protocol (Config.Detector).
func WithDetector(d DetectorKind) Option { return func(c *Config) { c.Detector = d } }

// WithFaultPlan switches the transport into reliable mode and injects the
// plan's faults (Config.FaultPlan).
func WithFaultPlan(fp *FaultPlan) Option { return func(c *Config) { c.FaultPlan = fp } }

// WithRecovery enables epoch-granular checkpoint/restart (Config.Recovery).
func WithRecovery() Option { return func(c *Config) { c.Recovery = true } }

// WithMaxRecoveries bounds recovery attempts per epoch
// (Config.MaxRecoveries).
func WithMaxRecoveries(n int) Option { return func(c *Config) { c.MaxRecoveries = n } }

// WithTraceCapacity enables event tracing with per-rank rings totalling n
// events (Config.TraceCapacity).
func WithTraceCapacity(n int) Option { return func(c *Config) { c.TraceCapacity = n } }

// WithTraceRingSize pins each rank's trace ring to exactly n events
// (Config.TraceRingSize).
func WithTraceRingSize(n int) Option { return func(c *Config) { c.TraceRingSize = n } }

// WithLineage sets the causal-lineage mode (Config.Lineage).
func WithLineage(m LineageMode) Option { return func(c *Config) { c.Lineage = m } }

// WithTiming enables clock-based latency histograms (Config.Timing).
func WithTiming() Option { return func(c *Config) { c.Timing = true } }

// WithWatchdog arms the stuck-epoch watchdog (Config.Watchdog).
func WithWatchdog(d time.Duration) Option { return func(c *Config) { c.Watchdog = d } }

// WithTransport selects the message transport backend (Config.Transport):
// ChanTransport (the in-process default) or SockTransport (length-prefixed
// CRC-sealed frames over TCP or Unix-domain sockets, with handshakes,
// heartbeats, and automatic reconnect). A transport value is single-use —
// construct one per universe.
func WithTransport(t Transport) Option { return func(c *Config) { c.Transport = t } }

// WithControlPlane runs the universe as one worker process of a
// multi-process SPMD fleet (Config.MP): it hosts global ranks [mp.Lo,
// mp.Hi) and carries barriers, all-reduces, termination-detector waves and
// fault/recovery coordination over mp.Plane instead of process-local shared
// memory. Requires a socket transport for the data plane, forces the
// four-counter detector (the atomic detector reads process-local counters),
// and is mutually exclusive with Config.Recovery — faults abort the fleet
// and the launcher drives checkpoint/restart across processes instead.
func WithControlPlane(mp MPConfig) Option { return func(c *Config) { c.MP = &mp } }

// WithFlightRecorder attaches an always-on black-box flight recorder
// (Config.Flight): landmark events — epoch boundaries, phase transitions,
// faults, recovery, control-plane trouble — are mirrored into its bounded
// rings even when full tracing is off, and the substrate persists it at
// epoch commits and on every fault path so a killed process leaves a
// postmortem dump at most one epoch stale.
func WithFlightRecorder(f *obs.FlightRecorder) Option {
	return func(c *Config) { c.Flight = f }
}
