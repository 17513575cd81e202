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
// run. RunWorker is the matching worker-process entry point (reached via
// MaybeWorker self-exec or `declpat-worker -host`).
package mp

import (
	"errors"
	"fmt"
	"io"
	"net"

	"declpat/internal/am"
	"declpat/internal/ckpt"
	"declpat/internal/frame"
)

// Wire format: every frame is an internal/frame frame (u32 length | u8 kind
// | body | u64 CRC-64/ECMA, the layout the data plane's socket frames share).
// The control plane is low-rate — a handful of frames per epoch — so frames
// favor explicitness over compactness; bodies are encoded with the ckpt
// package's deterministic little-endian primitives.

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
// corruption (cmd/declpat-worker exits 4 vs 5).
var ErrDecode = errors.New("mp: control frame decode failure")

// writeFrame writes one frame. The caller serializes writers per connection.
func writeFrame(w io.Writer, kind byte, body []byte) error {
	f := frame.Begin(make([]byte, 0, 4+1+len(body)+8), kind)
	if _, err := w.Write(frame.Seal(append(f, body...))); err != nil {
		return classifyIOErr(err)
	}
	return nil
}

// readFrame reads and verifies one frame.
func readFrame(r io.Reader) (byte, []byte, error) {
	payload, _, err := frame.Read(r, nil, maxFrame)
	if errors.Is(err, frame.ErrCorrupt) {
		return 0, nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	if err != nil {
		return 0, nil, classifyIOErr(err)
	}
	return payload[0], payload[1:], nil
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

// hello is the client's opening frame.
type hello struct {
	Worker int
}

func (h hello) encode() []byte {
	e := ckpt.Enc{B: frame.Hello(nil, protoMagic)}
	e.U32(uint32(h.Worker))
	return e.B
}

func decodeHello(b []byte) (hello, error) {
	rest, err := frame.CheckHello(b, protoMagic)
	d := ckpt.Dec{B: rest, Err: err}
	h := hello{Worker: int(d.U32())}
	if err := d.Done(true); err != nil {
		return h, fmt.Errorf("%w: hello: %w", ErrDecode, err)
	}
	return h, nil
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
	JobJSON      []byte
}

func (w welcome) encode() []byte {
	var e ckpt.Enc
	e.U64(w.RunID)
	e.U32(uint32(w.Workers))
	e.U32(uint32(w.Ranks))
	e.U32(uint32(w.Lo))
	e.U32(uint32(w.Hi))
	e.I64(w.RestartEpoch)
	if w.HaveCkpt {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.U32(uint32(len(w.Log)))
	for _, v := range w.Log {
		e.I64Slice(v)
	}
	e.String(w.CkptDir)
	e.U64(w.WorkerSeed)
	e.I64(w.KillEpoch)
	e.U8(w.KillMode)
	e.Bytes(w.JobJSON)
	return e.B
}

func decodeWelcome(b []byte) (welcome, error) {
	d := ckpt.Dec{B: b}
	var w welcome
	w.RunID = d.U64()
	w.Workers = int(d.U32())
	w.Ranks = int(d.U32())
	w.Lo = int(d.U32())
	w.Hi = int(d.U32())
	w.RestartEpoch = d.I64()
	w.HaveCkpt = d.U8() == 1
	n := d.Count(4) // a log entry is at least its 4-byte count
	for i := 0; i < n && d.Err == nil; i++ {
		w.Log = append(w.Log, d.I64Slice())
	}
	w.CkptDir = d.String()
	w.WorkerSeed = d.U64()
	w.KillEpoch = d.I64()
	w.KillMode = d.U8()
	w.JobJSON = d.Bytes()
	if err := d.Done(true); err != nil {
		return w, fmt.Errorf("%w: welcome: %v", ErrDecode, err)
	}
	return w, nil
}

func encodeStrings(ss []string) []byte {
	var e ckpt.Enc
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
	return e.B
}

func decodeStrings(b []byte) ([]string, error) {
	d := ckpt.Dec{B: b}
	n := d.Count(4) // an entry is at least its 4-byte length
	out := make([]string, 0, n)
	for i := 0; i < n && d.Err == nil; i++ {
		out = append(out, d.String())
	}
	if err := d.Done(true); err != nil {
		return nil, fmt.Errorf("%w: string table: %v", ErrDecode, err)
	}
	return out, nil
}

func encodeTag(tag int64) []byte {
	var e ckpt.Enc
	e.I64(tag)
	return e.B
}

func decodeTag(b []byte) (int64, error) {
	d := ckpt.Dec{B: b}
	tag := d.I64()
	if err := d.Done(true); err != nil {
		return 0, fmt.Errorf("%w: barrier tag: %v", ErrDecode, err)
	}
	return tag, nil
}

// gatherMsg carries one direction of an all-gather round: the worker's local
// slice up, the full global vector down. Seq numbers the gathers of one
// attempt so a late release can never satisfy the wrong call.
type gatherMsg struct {
	Seq  uint64
	Vals []int64
}

func (g gatherMsg) encode() []byte {
	var e ckpt.Enc
	e.U64(g.Seq)
	e.I64Slice(g.Vals)
	return e.B
}

func decodeGather(b []byte) (gatherMsg, error) {
	d := ckpt.Dec{B: b}
	g := gatherMsg{Seq: d.U64(), Vals: d.I64Slice()}
	if err := d.Done(true); err != nil {
		return g, fmt.Errorf("%w: gather: %v", ErrDecode, err)
	}
	return g, nil
}

func encodeSample(e *ckpt.Enc, s am.WaveSample) {
	e.I64(s.Sent)
	e.I64(s.Recv)
	e.I64(s.Aux)
	e.I64(s.Rel)
	e.I64(int64(s.Active))
	e.I64(int64(s.Idle))
	e.I64(int64(s.Total))
}

func decodeSample(d *ckpt.Dec) am.WaveSample {
	return am.WaveSample{
		Sent: d.I64(), Recv: d.I64(), Aux: d.I64(), Rel: d.I64(),
		Active: int32(d.I64()), Idle: int32(d.I64()), Total: int32(d.I64()),
	}
}

func encodeWave(s am.WaveSample) []byte {
	var e ckpt.Enc
	encodeSample(&e, s)
	return e.B
}

func decodeWave(b []byte) (am.WaveSample, error) {
	d := ckpt.Dec{B: b}
	s := decodeSample(&d)
	if err := d.Done(true); err != nil {
		return s, fmt.Errorf("%w: wave sample: %v", ErrDecode, err)
	}
	return s, nil
}

// waveReply is a worker's answer to a wave poll; OK is false when the worker
// is shutting down and cannot sample (the coordinator treats that as
// non-quiescent, never as an error).
type waveReply struct {
	OK     bool
	Sample am.WaveSample
}

func (r waveReply) encode() []byte {
	var e ckpt.Enc
	if r.OK {
		e.U8(1)
	} else {
		e.U8(0)
	}
	encodeSample(&e, r.Sample)
	return e.B
}

func decodeWaveReply(b []byte) (waveReply, error) {
	d := ckpt.Dec{B: b}
	r := waveReply{OK: d.U8() == 1}
	r.Sample = decodeSample(&d)
	if err := d.Done(true); err != nil {
		return r, fmt.Errorf("%w: wave reply: %v", ErrDecode, err)
	}
	return r, nil
}

func encodeFault(f am.RankFault) []byte {
	var e ckpt.Enc
	e.I64(int64(f.Kind))
	e.I64(int64(f.Rank))
	e.I64(f.Epoch)
	e.String(f.Detail)
	return e.B
}

func decodeFault(b []byte) (am.RankFault, error) {
	d := ckpt.Dec{B: b}
	f := am.RankFault{
		Kind:  am.FaultKind(d.I64()),
		Rank:  int(d.I64()),
		Epoch: d.I64(),
	}
	f.Detail = d.String()
	if err := d.Done(true); err != nil {
		return f, fmt.Errorf("%w: fault report: %v", ErrDecode, err)
	}
	return f, nil
}

// abortMsg tells a worker the fleet is going down. Clean distinguishes a
// peer that drained and said goodbye (SIGTERM departure) from one that died.
type abortMsg struct {
	Clean  bool
	Reason string
}

func (a abortMsg) encode() []byte {
	var e ckpt.Enc
	if a.Clean {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.String(a.Reason)
	return e.B
}

func decodeAbort(b []byte) (abortMsg, error) {
	d := ckpt.Dec{B: b}
	a := abortMsg{Clean: d.U8() == 1}
	a.Reason = d.String()
	if err := d.Done(true); err != nil {
		return a, fmt.Errorf("%w: abort: %v", ErrDecode, err)
	}
	return a, nil
}

// clockPing carries the worker's local monotonic send time; the pong echoes
// it back together with the coordinator's clock reading so the worker can run
// the midpoint-of-RTT offset estimate (see clock.go). Both directions share
// one body shape — the pong simply fills Remote in.
type clockMsg struct {
	T1     int64 // worker's obs.Now() at ping send
	Remote int64 // coordinator's obs.Now() at pong send (0 in the ping)
}

func (m clockMsg) encode() []byte {
	var e ckpt.Enc
	e.I64(m.T1)
	e.I64(m.Remote)
	return e.B
}

func decodeClock(b []byte) (clockMsg, error) {
	d := ckpt.Dec{B: b}
	m := clockMsg{T1: d.I64(), Remote: d.I64()}
	if err := d.Done(true); err != nil {
		return m, fmt.Errorf("%w: clock: %v", ErrDecode, err)
	}
	return m, nil
}

// traceMsg streams one bounded batch of trace records from a worker to the
// coordinator for the merged fleet timeline. Records is the JSON encoding of
// []obs.Record (worker-local timestamps; the coordinator applies the clock
// offset when merging). Offset/ErrBound are the worker's current estimate at
// flush time so the merge uses the tightest bound available.
type traceMsg struct {
	Worker   int
	Lo, Hi   int
	Offset   int64
	ErrBound int64
	Final    bool // last batch of this worker's run (drain flush)
	Records  []byte
}

func (m traceMsg) encode() []byte {
	var e ckpt.Enc
	e.U32(uint32(m.Worker))
	e.U32(uint32(m.Lo))
	e.U32(uint32(m.Hi))
	e.I64(m.Offset)
	e.I64(m.ErrBound)
	if m.Final {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Bytes(m.Records)
	return e.B
}

func decodeTrace(b []byte) (traceMsg, error) {
	d := ckpt.Dec{B: b}
	m := traceMsg{
		Worker: int(d.U32()),
		Lo:     int(d.U32()),
		Hi:     int(d.U32()),
	}
	m.Offset = d.I64()
	m.ErrBound = d.I64()
	m.Final = d.U8() == 1
	m.Records = d.Bytes()
	if err := d.Done(true); err != nil {
		return m, fmt.Errorf("%w: trace batch: %v", ErrDecode, err)
	}
	return m, nil
}

// resultMsg ships one result-vector shard: the values of one local rank of
// one output vector, placed at VertexLo in the global vector.
type resultMsg struct {
	Vec      int
	VertexLo uint64
	Vals     []int64
}

func (r resultMsg) encode() []byte {
	var e ckpt.Enc
	e.U32(uint32(r.Vec))
	e.U64(r.VertexLo)
	e.I64Slice(r.Vals)
	return e.B
}

func decodeResult(b []byte) (resultMsg, error) {
	d := ckpt.Dec{B: b}
	r := resultMsg{Vec: int(d.U32()), VertexLo: d.U64()}
	r.Vals = d.I64Slice()
	if err := d.Done(true); err != nil {
		return r, fmt.Errorf("%w: result shard: %v", ErrDecode, err)
	}
	return r, nil
}
