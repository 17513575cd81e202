package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"declpat/internal/ckpt"
	"declpat/internal/frame"
)

// Flight recorder: an always-on, bounded black box. Where the trace rings
// capture everything and cost accordingly (they are opt-in), the recorder
// captures only low-rate landmarks — epoch boundaries, phase transitions,
// faults, control-plane events, per-epoch counter snapshots — in fixed-size
// per-rank rings, and persists them atomically (tmp+rename, CRC-sealed, the
// checkpoint files' discipline) at epoch commits and on every fault path. A
// worker that dies SIGKILL-style therefore leaves a dump at most one epoch
// stale; one that faults, trips the watchdog, loses its transport, or drains
// on SIGTERM leaves a dump from the moment of death. declpat-trace
// -postmortem renders the dumps.

// FlightEvent is one black-box event. Kind is a short tag ("epoch-begin",
// "phase", "crash", "abort", ...); Arg/Arg2 carry the source event's raw
// arguments (for phase events: phase id and epoch).
type FlightEvent struct {
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Kind string `json:"kind"`
	Rank int    `json:"rank"`
	Arg  int64  `json:"arg,omitempty"`
	Arg2 int64  `json:"arg2,omitempty"`
	Note string `json:"note,omitempty"`
}

// RankPhase is a rank's in-progress phase at dump time — how a postmortem
// names the phase a killed worker died in even though the phase never closed.
type RankPhase struct {
	Rank  int    `json:"rank"`
	Phase string `json:"phase"`
	Since int64  `json:"since"` // local monotonic ns
	Epoch int64  `json:"epoch"`
}

// EpochCounters is one per-epoch counter snapshot (cumulative totals at the
// epoch's commit; diff consecutive snapshots for the epoch's deltas).
type EpochCounters struct {
	Epoch    int64            `json:"epoch"`
	TS       int64            `json:"ts"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// FlightDump is the persisted black box.
type FlightDump struct {
	Label    string `json:"label,omitempty"`
	Worker   int    `json:"worker"`
	RankLo   int    `json:"rank_lo"`
	RankHi   int    `json:"rank_hi"`
	RunID    uint64 `json:"run_id,omitempty"`
	Reason   string `json:"reason"`
	Epoch    int64  `json:"epoch"` // current epoch at dump time
	DumpedTS int64  `json:"dumped_ts"`
	WallTime string `json:"wall_time,omitempty"`
	// Clock estimate at dump time (launcher ≈ local + offset), so postmortem
	// timestamps from different workers line up like the fleet trace.
	ClockOffsetNS int64            `json:"clock_offset_ns,omitempty"`
	ClockErrNS    int64            `json:"clock_err_ns,omitempty"`
	OpenPhases    []RankPhase      `json:"open_phases,omitempty"`
	Events        []FlightEvent    `json:"events,omitempty"`
	Epochs        []EpochCounters  `json:"epochs,omitempty"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	Notes         []string         `json:"notes,omitempty"`
}

// flightMagic names a dump file: one internal/frame hello frame (magic
// "DPFR", so frame.Version versions it) whose body is the FlightDump's
// canonical JSON (frame.AppendJSON).
const flightMagic = "DPFR"

// flightPhaseState is one rank's open-phase cell. phase holds phase-id+1 (0 =
// no open phase) so the zero value means idle.
type flightPhaseState struct {
	phase atomic.Int64
	since atomic.Int64
	epoch atomic.Int64
	_     [cacheLine]byte
}

// FlightConfig configures a recorder.
type FlightConfig struct {
	Path     string // dump destination for Persist ("" = Persist is a no-op)
	Label    string
	Worker   int
	RankLo   int // global rank range hosted by this process
	RankHi   int
	RunID    uint64
	Capacity int // per-rank event ring capacity (default 256)
	// Counters, when set, is sampled at every EpochCommit and at dump time
	// (cumulative totals; consecutive epoch samples diff to per-epoch deltas).
	Counters func() map[string]int64
	// EpochWindow bounds the retained per-epoch counter snapshots (default 8).
	EpochWindow int
}

// FlightRecorder is safe for concurrent use by all ranks of a process.
type FlightRecorder struct {
	cfg    FlightConfig
	rings  *Rings[FlightEvent]
	phases []flightPhaseState
	epoch  atomic.Int64

	offset atomic.Int64
	errNS  atomic.Int64
	hasClk atomic.Bool

	mu     sync.Mutex // epochs ring + notes + Persist serialization
	epochs []EpochCounters
	notes  []string
	sealed bool
}

// NewFlightRecorder builds a recorder for cfg.RankHi-cfg.RankLo ranks.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.EpochWindow <= 0 {
		cfg.EpochWindow = 8
	}
	n := cfg.RankHi - cfg.RankLo
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{
		cfg:    cfg,
		rings:  NewRings[FlightEvent](n, cfg.Capacity),
		phases: make([]flightPhaseState, n),
		epoch:  atomic.Int64{},
	}
}

func (f *FlightRecorder) shard(rank int) int {
	s := rank - f.cfg.RankLo
	if s < 0 || s >= f.rings.Shards() {
		return 0
	}
	return s
}

// Record appends one event on the given global rank's ring.
func (f *FlightRecorder) Record(rank int, ev FlightEvent) {
	ev.Rank = rank
	f.rings.Append(f.shard(rank), ev)
}

// PhaseEnter marks rank as inside phase (named by the obs.Phase taxonomy)
// since ts. The cell survives until PhaseExit — a rank killed mid-phase is
// dumped with the phase still open.
func (f *FlightRecorder) PhaseEnter(rank int, phase Phase, ts int64) {
	st := &f.phases[f.shard(rank)]
	st.phase.Store(int64(phase) + 1)
	st.since.Store(ts)
	st.epoch.Store(f.epoch.Load())
}

// PhaseExit clears rank's open phase.
func (f *FlightRecorder) PhaseExit(rank int) {
	f.phases[f.shard(rank)].phase.Store(0)
}

// SetEpoch advances the recorder's current-epoch marker (used to stamp open
// phases and the dump header).
func (f *FlightRecorder) SetEpoch(epoch int64) {
	f.epoch.Store(epoch)
}

// Epoch returns the recorder's current-epoch marker.
func (f *FlightRecorder) Epoch() int64 { return f.epoch.Load() }

// EpochCommit records that epoch committed at ts and samples the counter
// snapshot into the bounded per-epoch window.
func (f *FlightRecorder) EpochCommit(epoch int64, ts int64) {
	var snap map[string]int64
	if f.cfg.Counters != nil {
		snap = f.cfg.Counters()
	}
	f.mu.Lock()
	f.epochs = append(f.epochs, EpochCounters{Epoch: epoch, TS: ts, Counters: snap})
	if len(f.epochs) > f.cfg.EpochWindow {
		f.epochs = f.epochs[len(f.epochs)-f.cfg.EpochWindow:]
	}
	f.mu.Unlock()
}

// SetClock records the current launcher-clock estimate for the dump header.
func (f *FlightRecorder) SetClock(offset, errNS int64) {
	f.offset.Store(offset)
	f.errNS.Store(errNS)
	f.hasClk.Store(true)
}

// Note appends a free-form line to the dump (bounded; oldest dropped).
func (f *FlightRecorder) Note(s string) {
	f.mu.Lock()
	f.notes = append(f.notes, s)
	if len(f.notes) > 64 {
		f.notes = f.notes[len(f.notes)-64:]
	}
	f.mu.Unlock()
}

// snapshot assembles the dump body.
func (f *FlightRecorder) snapshot(reason string) *FlightDump {
	d := &FlightDump{
		Label:    f.cfg.Label,
		Worker:   f.cfg.Worker,
		RankLo:   f.cfg.RankLo,
		RankHi:   f.cfg.RankHi,
		RunID:    f.cfg.RunID,
		Reason:   reason,
		Epoch:    f.epoch.Load(),
		DumpedTS: Now(),
		WallTime: time.Now().UTC().Format(time.RFC3339Nano),
	}
	if f.hasClk.Load() {
		d.ClockOffsetNS = f.offset.Load()
		d.ClockErrNS = f.errNS.Load()
	}
	for i := range f.phases {
		st := &f.phases[i]
		if p := st.phase.Load(); p > 0 {
			d.OpenPhases = append(d.OpenPhases, RankPhase{
				Rank:  f.cfg.RankLo + i,
				Phase: Phase(p - 1).String(),
				Since: st.since.Load(),
				Epoch: st.epoch.Load(),
			})
		}
	}
	d.Events = f.rings.Merged(
		func(a, b FlightEvent) bool { return a.TS < b.TS }, nil)
	if f.cfg.Counters != nil {
		d.Counters = f.cfg.Counters()
	}
	f.mu.Lock()
	d.Epochs = append([]EpochCounters(nil), f.epochs...)
	d.Notes = append([]string(nil), f.notes...)
	f.mu.Unlock()
	return d
}

// Dump persists the black box to path: tmp file in the same directory,
// fsync, rename — the same sealing discipline as the checkpoint slots, so a
// dump is either the previous complete one or the new complete one.
func (f *FlightRecorder) Dump(path, reason string) error {
	b, err := encodeFlightDump(f.snapshot(reason))
	if err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(path, b)
}

// encodeFlightDump seals d as the bytes of a dump file.
func encodeFlightDump(d *FlightDump) ([]byte, error) {
	f, err := frame.AppendJSON(frame.Hello(frame.Begin(nil, frame.KindHello), flightMagic), d)
	if err != nil {
		return nil, fmt.Errorf("obs: flight dump encode: %w", err)
	}
	return frame.Seal(f), nil
}

// decodeFlightDump parses the bytes of a dump file. It accepts exactly what
// encodeFlightDump writes.
func decodeFlightDump(b []byte) (*FlightDump, error) {
	body, err := frame.Open(b, flightMagic)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := frame.DecodeJSON(body, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Persist dumps to the configured path (flight-<worker>.dpfr naming is the
// caller's choice via FlightConfig.Path). Serialized: concurrent fault paths
// and the epoch-commit writer cannot interleave half-written files (the
// atomic rename already guarantees that; the lock just orders them). A
// recorder with no configured path is a no-op.
func (f *FlightRecorder) Persist(reason string) error {
	if f.cfg.Path == "" {
		return nil
	}
	f.mu.Lock()
	path, sealed := f.cfg.Path, f.sealed
	f.mu.Unlock()
	if sealed {
		return nil
	}
	return f.Dump(path, reason)
}

// Seal makes every later Persist a no-op. A worker seals after writing its
// terminal dump ("run complete", a goodbye drain, or a run failure) so that
// teardown noise — the coordinator closing control connections once results
// are shipped looks exactly like a fleet abort to the reader loop — cannot
// overwrite the dump that names how the run actually ended.
func (f *FlightRecorder) Seal() {
	f.mu.Lock()
	f.sealed = true
	f.mu.Unlock()
}

// LoadFlightDump reads and validates a dump file.
func LoadFlightDump(path string) (*FlightDump, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := decodeFlightDump(b)
	if err != nil {
		return nil, fmt.Errorf("obs: flight dump %s: %w", path, err)
	}
	return d, nil
}

// LoadFlightDir loads every flight-*.dpfr in dir, sorted by worker index.
// Unreadable or corrupt files are reported in errs but do not block the
// readable ones — a postmortem wants whatever survived.
func LoadFlightDir(dir string) (dumps []*FlightDump, errs []error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "flight-*.dpfr"))
	sort.Strings(paths)
	for _, p := range paths {
		d, err := LoadFlightDump(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		dumps = append(dumps, d)
	}
	sort.SliceStable(dumps, func(i, j int) bool { return dumps[i].Worker < dumps[j].Worker })
	return dumps, errs
}
