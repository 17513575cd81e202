// Package mp is the multi-process SPMD control plane: a launcher-side
// Coordinator serves barrier entry/exit, all-gather collectives,
// termination-detector waves, fault reports, and recovery coordination
// (checkpoint-commit votes, rollback fences) to worker-side Clients over
// versioned CRC-sealed wire frames, so a fleet of real OS processes — each
// hosting a contiguous slice of the global rank range via
// am.WithControlPlane — runs unmodified algorithm kernels with every global
// control operation carried on the wire.
//
// The package also owns the fleet lifecycle: Launch spawns N worker
// processes, wires their data-plane topology through the coordinator's
// address exchange, drives the run, and on worker death (heartbeat loss,
// fault report, seeded kill) respawns the fleet and restarts it from the
// last committed checkpoint, replaying committed collective results from the
// coordinator's gather log so the rerun is bit-identical to an undisturbed
// run. RunWorker is the matching worker-process entry point, reached through
// MaybeWorker when Launch spawns its own executable (self-exec). JobSpec is
// the one description of a run and its one gate (Normalize); Bind turns it
// into the kernel a worker runs.
package mp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"declpat/internal/am"
	"declpat/internal/frame"
)

// Wire format: every frame is an internal/frame frame (u32 length | u8 kind
// | body | u64 CRC-64/ECMA, the layout the data plane's socket frames share).
// The control plane is low-rate — a handful of frames per epoch — so a body
// is the canonical JSON of a plain value (frame.AppendJSON): writeFrame is
// the one encoder and decodeBody the one decoder, and a hello's JSON follows
// its frame.Hello opening.

// protoMagic opens the hello body (frame.Hello); a connection speaking
// anything else (a stray data-plane dial, a worker from another build) is
// rejected at the handshake.
const protoMagic = "DPCP"

// maxFrame bounds a control frame. Gather releases carry one i64 per global
// rank and welcomes carry the committed collective log, both far below this.
const maxFrame = 1 << 26

// Frame kinds. Client→coordinator kinds and coordinator→client kinds share
// one numbering so a misrouted frame is unmistakable in errors.
const (
	fHello          byte = 0  // c→s: hello DPCP (kind frame.KindHello), worker index
	fWelcome        byte = 2  // s→c: fleet config, job, restart state
	fAddrSet        byte = 3  // c→s: data-plane listener addrs of local ranks
	fAddrTable      byte = 4  // s→c: full address table, indexed by global rank
	fBarrier        byte = 5  // c→s: barrier entry (tagged = commit vote)
	fBarrierRelease byte = 6  // s→c: barrier exit
	fGather         byte = 7  // c→s: local slice of an all-gather
	fGatherRelease  byte = 8  // s→c: full gathered vector
	fWaveStart      byte = 9  // c(rank-0 host)→s: detector wave, local sample
	fWavePoll       byte = 10 // s→c: probe a worker for its wave sample
	fWaveReply      byte = 11 // c→s: wave sample (or shutting-down marker)
	fWaveResult     byte = 12 // s→c(rank-0 host): merged global sample
	fFinish         byte = 13 // c→s then s→all: epoch quiesced globally
	fFault          byte = 14 // c→s: local rank fault; fleet must restart
	fAbort          byte = 15 // s→c: fleet is going down (clean flag + reason)
	fGoodbye        byte = 16 // c→s: graceful departure (SIGTERM drain)
	fGoodbyeAck     byte = 17 // s→c: departure acknowledged
	fResult         byte = 18 // c→s: one result vector shard
	fResultDone     byte = 19 // c→s: all result shards shipped
	fHeartbeat      byte = 20 // both: liveness keep-alive, no body
	fClockPing      byte = 21 // c→s: clock-offset probe (worker send time)
	fClockPong      byte = 22 // s→c: probe echo + coordinator clock reading
	fTrace          byte = 23 // c→s: bounded batch of trace records (JSON)
)

func kindName(k byte) string {
	names := map[byte]string{
		fHello: "hello", fWelcome: "welcome", fAddrSet: "addr-set",
		fAddrTable: "addr-table", fBarrier: "barrier", fBarrierRelease: "barrier-release",
		fGather: "gather", fGatherRelease: "gather-release", fWaveStart: "wave-start",
		fWavePoll: "wave-poll", fWaveReply: "wave-reply", fWaveResult: "wave-result",
		fFinish: "finish", fFault: "fault", fAbort: "abort", fGoodbye: "goodbye",
		fGoodbyeAck: "goodbye-ack", fResult: "result", fResultDone: "result-done",
		fHeartbeat: "heartbeat", fClockPing: "clock-ping", fClockPong: "clock-pong",
		fTrace: "trace",
	}
	if n, ok := names[k]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", k)
}

// ErrPeerClosed reports a control connection that ended without protocol
// damage: EOF, a reset, or a closed socket. A worker that dies SIGKILL-style
// surfaces to its peers as this error.
var ErrPeerClosed = errors.New("mp: control peer closed connection")

// ErrDecode reports a control frame that arrived damaged: bad length, CRC
// mismatch, malformed body, or an unexpected kind. Distinct from
// ErrPeerClosed so process exit codes can tell a dead peer from protocol
// corruption (a worker exits 4 vs 5).
var ErrDecode = errors.New("mp: control frame decode failure")

// writeFrame writes one frame whose body is v's canonical JSON, or empty when
// v is nil. The caller serializes writers per connection.
func writeFrame(w io.Writer, kind byte, v any) error {
	f := frame.Begin(nil, kind)
	if kind == fHello {
		f = frame.Hello(f, protoMagic)
	}
	if v != nil {
		var err error
		if f, err = frame.AppendJSON(f, v); err != nil {
			return err
		}
	}
	if _, err := w.Write(frame.Seal(f)); err != nil {
		return classifyIOErr(err)
	}
	return nil
}

// readFrame reads and verifies one frame and returns its kind and body; a
// hello's body is what follows its checked opening.
func readFrame(r io.Reader) (byte, []byte, error) {
	payload, _, err := frame.Read(r, nil, maxFrame)
	if errors.Is(err, frame.ErrCorrupt) {
		return 0, nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if err != nil {
		return 0, nil, classifyIOErr(err)
	}
	kind, body := payload[0], payload[1:]
	if kind == fHello {
		if body, err = frame.CheckHello(body, protoMagic); err != nil {
			return kind, nil, fmt.Errorf("%w: hello: %w", ErrDecode, err)
		}
	}
	return kind, body, nil
}

// decodeBody parses a frame body into v, a pointer to a zero value. A body
// writeFrame would not have written for that value is ErrDecode.
func decodeBody(kind byte, body []byte, v any) error {
	if err := frame.DecodeJSON(body, v); err != nil {
		return fmt.Errorf("%w: %s body: %v", ErrDecode, kindName(kind), err)
	}
	return nil
}

// classifyIOErr folds transport-level errors into the two sentinels: clean
// connection endings become ErrPeerClosed; anything else passes through.
func classifyIOErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || isConnReset(err) {
		return fmt.Errorf("%w: %v", ErrPeerClosed, err)
	}
	return err
}

func isConnReset(err error) bool {
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true // read/write on a dead connection, whatever the syscall said
	}
	return false
}

// --- frame bodies ---
//
// addr-set and addr-table carry a []string, barrier and barrier-release an
// int64 tag, wave-start and wave-result an am.WaveSample, fault an
// am.RankFault; the kinds below carry a struct, and the rest no body.

// hello is the client's opening frame.
type hello struct {
	Worker int
}

// Kill modes a welcome can arm on the target worker (client-side arming is
// only needed for the self-kill variant; entry/term kills are driven by the
// coordinator and launcher).
const (
	killNone byte = 0
	killBody byte = 1 // self-SIGKILL right after the armed epoch's commit vote releases
)

// welcome is the coordinator's reply to a hello: everything the worker needs
// to build its universe — fleet shape, restart state, the committed
// collective log, its derived fault seed, and an optionally armed kill.
type welcome struct {
	RunID        uint64
	Workers      int
	Ranks        int
	Lo, Hi       int
	RestartEpoch int64
	HaveCkpt     bool
	Log          [][]int64
	CkptDir      string
	WorkerSeed   uint64
	KillEpoch    int64 // meaningful when KillMode != killNone
	KillMode     byte
	Job          json.RawMessage // the JobSpec
}

// gatherMsg carries one direction of an all-gather round: the worker's local
// slice up, the full global vector down. Seq numbers the gathers of one
// attempt so a late release can never satisfy the wrong call.
type gatherMsg struct {
	Seq  uint64
	Vals []int64
}

// waveReply is a worker's answer to a wave poll; OK is false when the worker
// is shutting down and cannot sample (the coordinator treats that as
// non-quiescent, never as an error).
type waveReply struct {
	OK     bool
	Sample am.WaveSample
}

// abortMsg tells a worker the fleet is going down. Clean distinguishes a
// peer that drained and said goodbye (SIGTERM departure) from one that died.
type abortMsg struct {
	Clean  bool
	Reason string
}

// clockMsg carries the worker's local monotonic send time; the pong echoes
// it back together with the coordinator's clock reading so the worker can run
// the midpoint-of-RTT offset estimate (see clock.go). Both directions share
// one body shape — the pong simply fills Remote in.
type clockMsg struct {
	T1     int64 // worker's obs.Now() at ping send
	Remote int64 // coordinator's obs.Now() at pong send (0 in the ping)
}

// traceMsg streams one bounded batch of trace records from a worker to the
// coordinator for the merged fleet timeline. Records is the JSON encoding of
// []obs.Record (worker-local timestamps; the coordinator applies the clock
// offset when merging). Offset/ErrBound are the worker's current estimate at
// flush time so the merge uses the tightest bound available. Dropped counts
// the events the worker's rings overwrote since its previous batch, before
// any flush could ship them; it is omitted when zero, so a batch without a
// gap keeps the encoding a decoder without the field accepts.
type traceMsg struct {
	Worker   int
	Lo, Hi   int
	Offset   int64
	ErrBound int64
	Final    bool // last batch of this worker's run (drain flush)
	Records  json.RawMessage
	Dropped  int64 `json:",omitempty"`
}

// resultMsg ships one result-vector shard: the values of one local rank of
// one output vector, placed at VertexLo in the global vector.
type resultMsg struct {
	Vec      int
	VertexLo uint64
	Vals     []int64
}
