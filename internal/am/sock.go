package am

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"declpat/internal/frame"
	"declpat/internal/obs"
)

// Socket transport backend: envelopes cross real TCP or Unix-domain sockets
// as length-prefixed CRC-sealed frames.
//
// Topology: every rank binds one listener; every directed link (src → dest,
// src != dest) is one dialed connection, written only by src's send path and
// read only by a reader goroutine that pushes reconstructed envelopes onto
// dest's inbox. Self-sends bypass the sockets entirely.
//
// The backend is deliberately *best-effort* (see the Transport contract): a
// frame written into a dying connection is gone, exactly like a dropped
// packet, and the reliable layer's unack→retransmit table recovers it. What
// the backend does own is the connection lifecycle — a version/rank
// handshake on dial, per-link heartbeats with a liveness deadline on the
// read side, and automatic reconnection with capped exponential backoff.
// On reconnect it marks every unacknowledged envelope bound for the peer
// due-now (requeueOutstanding), so frames lost in the dead connection replay
// at the next poll instead of waiting out their backoff. A link whose
// reconnect budget is exhausted escalates to the crash-stop path: a
// FaultTransport rank fault aborts the epoch, and recovery (healEpoch)
// grants the link a fresh budget before the replay.
//
// Scope: in a single-process universe every rank binds its listener here and
// the control plane (barriers, detectors, collectives) stays shared-memory,
// which is what makes the chaos matrix's bit-identity comparison meaningful.
// Under a control plane (WithControlPlane) the same transport serves one rank
// host's slice of the ranks and dials the other hosts' listeners, so kill -9
// on a rank host is a real connection failure.

// Handshake. The dialer opens every connection with a hello frame
// (frame.Hello with magic sockMagic, then u32 src rank, u32 dest rank and the
// universe's u64 instance id); the acceptor validates all of it and answers
// one status byte.
const (
	sockMagic = "DPS1"
	statusOK  = 0
	statusBad = 1
)

// Frame kinds.
const (
	frameData      = 1
	frameAck       = 2
	frameHeartbeat = 3
)

// ioTimeout bounds each connection attempt (including the handshake round
// trip) and each frame write; an expired write kills the connection, and the
// reliable layer recovers the frame.
const ioTimeout = 2 * time.Second

// reconnectBudget is the number of reconnect attempts per outage before a
// link escalates to a FaultTransport rank fault (crash-stop path).
const reconnectBudget = 10

// maxFrameLen bounds a frame announced by the length prefix; anything larger
// marks the stream corrupt (a desynced or hostile peer).
const maxFrameLen = 64 << 20

// sockUniverseSeq distinguishes universes within one process for the
// handshake's instance id.
var sockUniverseSeq atomic.Uint64

// framePool recycles frame build/read buffers.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// SockOptions configures the socket transport backend.
type SockOptions struct {
	// Network selects the socket family: "tcp" (loopback; the default) or
	// "unix" (Unix-domain sockets).
	Network string
	// Dir is the directory for Unix socket files; "" creates (and owns) a
	// temporary directory removed at close. Ignored for TCP.
	Dir string
	// TickInterval paces the retransmit clock (Transport.tickInterval): the
	// link tick advances at most once per interval, so retransmit timeouts
	// correspond to real socket latency. <= 0 selects the default (1ms).
	TickInterval time.Duration
	// Faults, when non-nil, injects deterministic connection-level failures
	// (see SockFaultPlan).
	Faults *SockFaultPlan

	// heartbeat, liveness, reconnectBase and reconnectMax are the failure
	// machinery's timings; 0 selects heartbeatInterval, livenessDeadline,
	// reconnectBase and reconnectMax. Only tests set them.
	heartbeat, liveness, reconnectBase, reconnectMax time.Duration
}

// The socket failure machinery's timings. A link's writer emits a heartbeat
// frame after heartbeatInterval idle, which keeps the peer's read deadline
// fed on quiet links; a connection on which no frame (data, ack or
// heartbeat) arrives within livenessDeadline is declared dead and closed,
// counted as a heartbeat miss, so the deadline must exceed the interval.
// Reconnect attempt n sleeps reconnectBase << (n-1), capped at reconnectMax,
// spread by a deterministic ±50 % jitter (sockLink.backoff). A killed peer is
// noticed in tens of milliseconds.
const (
	heartbeatInterval = 10 * time.Millisecond
	livenessDeadline  = 100 * time.Millisecond
	reconnectBase     = time.Millisecond
	reconnectMax      = 10 * time.Millisecond
)

func (o SockOptions) withDefaults() SockOptions {
	if o.Network == "" {
		o.Network = "tcp"
	}
	if o.heartbeat <= 0 {
		o.heartbeat = heartbeatInterval
	}
	if o.liveness <= 0 {
		o.liveness = livenessDeadline
	}
	if o.reconnectBase <= 0 {
		o.reconnectBase = reconnectBase
	}
	if o.reconnectMax <= 0 {
		o.reconnectMax = reconnectMax
	}
	if o.TickInterval <= 0 {
		o.TickInterval = time.Millisecond
	}
	return o
}

// SockFaultPlan injects deterministic connection-level failures into the
// socket transport. Triggers are counted in *frames written* on the directed
// link (data and ack frames; heartbeats don't advance the count), so a
// schedule is reproducible regardless of wall-clock timing: the k-th frame a
// link writes always meets the same fate.
type SockFaultPlan struct {
	// Disconnects kill a link's connection once, when its frame count
	// reaches AfterFrames (the triggering frame is lost). The writer then
	// reconnects through the normal backoff path. Each entry fires at most
	// once per run.
	Disconnects []SockDisconnect
	// Partitions black-hole one direction: every frame (heartbeats
	// included) written while FromFrame <= frames < ToFrame vanishes
	// silently — the connection stays open, so only the peer's liveness
	// deadline notices. ToFrame <= 0 keeps the window open until epoch
	// recovery heals it.
	Partitions []SockPartition
	// Flaps kill a link's connection repeatedly: every Period-th frame, up
	// to Count times.
	Flaps []SockFlap
}

// SockDisconnect kills the (Src → Dest) connection when the link has written
// AfterFrames frames (<= 1 kills the very first frame).
type SockDisconnect struct {
	Src, Dest   int
	AfterFrames uint64
}

// SockPartition black-holes (Src → Dest) for frames in [FromFrame, ToFrame).
type SockPartition struct {
	Src, Dest          int
	FromFrame, ToFrame uint64
}

// SockFlap kills the (Src → Dest) connection on every Period-th frame, Count
// times.
type SockFlap struct {
	Src, Dest int
	Period    uint64
	Count     int
}

// sockTransport implements Transport over TCP or Unix-domain sockets.
type sockTransport struct {
	opt SockOptions
	u   *Universe
	id  uint64 // handshake instance id

	network string
	dir     string // unix socket dir
	ownDir  bool
	// dial opens a link's connection; nil means net.DialTimeout. budget is
	// reconnectBudget. Tests substitute a dial that fails and a smaller
	// budget, to stage an outage that outlasts it.
	dial   func(network, addr string, timeout time.Duration) (net.Conn, error)
	budget int

	addrs []string       // per-rank listen address
	lns   []net.Listener // per-rank listener
	links [][]*sockLink  // [src][dest]; nil on the diagonal

	// readMu guards the accepted-connection registries: readers maps each
	// directed link to its current reader connection (a replacement closes
	// the old one), pending holds connections still in their handshake so
	// close can reach them.
	readMu  sync.Mutex
	readers map[[2]int]net.Conn
	pending map[net.Conn]struct{}

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// sockLink is the writer-side state of one directed connection.
type sockLink struct {
	t         *sockTransport
	src, dest int

	mu           sync.Mutex
	conn         net.Conn
	dead         bool // reconnect budget exhausted; healEpoch revives
	reconnecting bool
	frames       uint64 // data+ack frames written (fault-schedule clock)
	lastWriteNs  int64

	// Fault-schedule state, indexed like the plan's slices; only entries
	// matching (src, dest) ever fire.
	discFired  []bool
	partClosed []bool
	flapFired  []int
}

// SockTransport returns a socket transport backend with the given options.
// The universe it binds to must register every message type with a wire
// codec (WithWire / WithCodec): frames carry encoded bytes, and a type
// without a codec cannot cross a socket.
func SockTransport(opts SockOptions) Transport {
	return &sockTransport{
		opt:     opts.withDefaults(),
		budget:  reconnectBudget,
		id:      uint64(os.Getpid())<<32 ^ sockUniverseSeq.Add(1),
		readers: make(map[[2]int]net.Conn),
		pending: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
}

func (t *sockTransport) Name() string {
	if t.opt.Network == "unix" {
		return "sock-unix"
	}
	return "sock-tcp"
}

func (t *sockTransport) shared() bool                { return false }
func (t *sockTransport) tickInterval() time.Duration { return t.opt.TickInterval }

func (t *sockTransport) start(u *Universe) error {
	if t.u != nil {
		return errTransportReused
	}
	switch t.opt.Network {
	case "tcp", "unix":
		t.network = t.opt.Network
	default:
		return fmt.Errorf("SockOptions.Network %q (want \"tcp\" or \"unix\")", t.opt.Network)
	}
	for _, mt := range u.types {
		if !mt.wire {
			return fmt.Errorf("message type %q has no wire codec; every type on a socket transport needs one (WithWire or WithCodec)", mt.name)
		}
	}
	t.u = u
	n := u.cfg.Ranks
	// In multi-process mode this transport instance serves one worker's rank
	// range: it binds listeners and owns writer links only for local ranks,
	// learns every other rank's address through the control plane, and seals
	// handshakes with the fleet-wide run id so workers of one launch accept
	// each other (and reject strays from other launches or stale attempts).
	lo, hi := 0, n
	if u.mp != nil {
		lo, hi = u.mp.lo, u.mp.hi
		t.id = u.mp.cfg.RunID
	}

	cleanup := func(err error) error {
		t.close()
		return err
	}
	if t.network == "unix" {
		t.dir = t.opt.Dir
		if t.dir == "" {
			d, err := os.MkdirTemp("", "declpat-sock-")
			if err != nil {
				return err
			}
			t.dir, t.ownDir = d, true
		}
	}
	t.addrs = make([]string, n)
	t.lns = make([]net.Listener, n)
	for rank := lo; rank < hi; rank++ {
		var ln net.Listener
		var err error
		if t.network == "unix" {
			path := fmt.Sprintf("%s/rank-%d.sock", t.dir, rank)
			// A respawned worker reuses the same path; a stale socket file
			// from the killed predecessor would fail the bind.
			os.Remove(path)
			ln, err = net.Listen("unix", path)
		} else {
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		}
		if err != nil {
			return cleanup(fmt.Errorf("listen rank %d: %w", rank, err))
		}
		t.lns[rank] = ln
		t.addrs[rank] = ln.Addr().String()
	}
	if u.mp != nil {
		table, err := u.mp.plane.ExchangeAddrs(t.addrs[lo:hi])
		if err != nil {
			return cleanup(fmt.Errorf("exchanging rank addresses: %w", err))
		}
		if len(table) != n {
			return cleanup(fmt.Errorf("address table covers %d ranks, want %d", len(table), n))
		}
		copy(t.addrs, table)
	}
	for rank := lo; rank < hi; rank++ {
		t.wg.Add(1)
		go t.acceptLoop(rank, t.lns[rank])
	}
	t.links = make([][]*sockLink, n)
	for src := lo; src < hi; src++ {
		t.links[src] = make([]*sockLink, n)
		for dest := 0; dest < n; dest++ {
			if src == dest {
				continue
			}
			l := &sockLink{t: t, src: src, dest: dest}
			if fp := t.opt.Faults; fp != nil {
				l.discFired = make([]bool, len(fp.Disconnects))
				l.partClosed = make([]bool, len(fp.Partitions))
				l.flapFired = make([]int, len(fp.Flaps))
			}
			t.links[src][dest] = l
			// Eager synchronous dial: a misconfiguration (bad address,
			// unreachable host) fails the run before it starts instead of
			// surfacing as a reconnect storm mid-epoch.
			conn, err := t.dialLink(src, dest)
			if err != nil {
				return cleanup(fmt.Errorf("dial link %d->%d: %w", src, dest, err))
			}
			l.conn = conn
			l.lastWriteNs = obs.Now()
		}
	}
	t.wg.Add(1)
	go t.heartbeatLoop()
	return nil
}

// dialLink establishes and handshakes one (src → dest) connection.
func (t *sockTransport) dialLink(src, dest int) (net.Conn, error) {
	dial := t.dial
	if dial == nil {
		dial = net.DialTimeout
	}
	conn, err := dial(t.network, t.addrs[dest], ioTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if err := t.handshake(conn, src, dest); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake runs the dialer side: hello out, status byte back.
func (t *sockTransport) handshake(conn net.Conn, src, dest int) error {
	hello := frame.Hello(frame.Begin(nil, frame.KindHello), sockMagic)
	hello = binary.LittleEndian.AppendUint32(hello, uint32(src))
	hello = binary.LittleEndian.AppendUint32(hello, uint32(dest))
	hello = binary.LittleEndian.AppendUint64(hello, t.id)
	conn.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := conn.Write(frame.Seal(hello)); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn, status[:]); err != nil {
		return fmt.Errorf("handshake status: %w", err)
	}
	if status[0] != statusOK {
		return fmt.Errorf("handshake rejected by peer (status %d)", status[0])
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// acceptLoop accepts connections on rank's listener and hands each to its
// own handshake + reader goroutine.
func (t *sockTransport) acceptLoop(rank int, ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal; reconnects re-dial anyway
		}
		t.readMu.Lock()
		if t.closed.Load() {
			t.readMu.Unlock()
			conn.Close()
			return
		}
		t.pending[conn] = struct{}{}
		// Add under readMu: close() sets closed before acquiring readMu,
		// so this Add happens-before its wg.Wait.
		t.wg.Add(1)
		t.readMu.Unlock()
		go t.handleConn(rank, conn)
	}
}

// handleConn validates the acceptor side of the handshake, registers the
// connection as the link's reader, and runs the frame-read loop. A hello
// that does not arrive whole within ioTimeout, or fails any check, is
// refused with statusBad and the connection closed.
func (t *sockTransport) handleConn(rank int, conn net.Conn) {
	defer t.wg.Done()
	conn.SetDeadline(time.Now().Add(ioTimeout))
	src, ok := t.acceptHello(conn, rank)
	status := byte(statusOK)
	if !ok {
		status = statusBad
	}
	if _, err := conn.Write([]byte{status}); !ok || err != nil {
		t.unregister(conn, -1, -1)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	if !t.register(conn, src, rank) {
		conn.Close()
		return
	}
	t.serveConn(conn, src, rank)
	t.unregister(conn, src, rank)
	conn.Close()
}

// acceptHello reads the dialer's hello frame and checks it against this
// transport and the listening rank, returning the dialing rank.
func (t *sockTransport) acceptHello(conn net.Conn, rank int) (src int, ok bool) {
	// A hello frame announces 31 bytes; a stray announcing more is refused
	// unread.
	payload, _, err := frame.Read(conn, nil, 64)
	if err != nil || payload[0] != frame.KindHello {
		return 0, false
	}
	body, err := frame.CheckHello(payload[1:], sockMagic)
	if err != nil || len(body) != 4+4+8 {
		return 0, false
	}
	src = int(binary.LittleEndian.Uint32(body))
	dest := int(binary.LittleEndian.Uint32(body[4:]))
	return src, dest == rank && src >= 0 && src < t.u.cfg.Ranks && src != dest &&
		binary.LittleEndian.Uint64(body[8:]) == t.id
}

// register promotes a handshaken connection to the (src → dest) reader slot,
// closing any stale predecessor (its reader exits on the closed conn, which
// is not a liveness timeout and so counts no heartbeat miss). Reports false
// when the transport is closing.
func (t *sockTransport) register(conn net.Conn, src, dest int) bool {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	delete(t.pending, conn)
	if t.closed.Load() {
		return false
	}
	key := [2]int{src, dest}
	if prev, ok := t.readers[key]; ok {
		prev.Close()
	}
	t.readers[key] = conn
	return true
}

// unregister drops a connection from the registries (reader slot only if it
// is still the current holder).
func (t *sockTransport) unregister(conn net.Conn, src, dest int) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	delete(t.pending, conn)
	if src >= 0 {
		key := [2]int{src, dest}
		if t.readers[key] == conn {
			delete(t.readers, key)
		}
	}
}

// serveConn is the read loop of one (src → dest) connection: it enforces the
// liveness deadline, verifies each frame's CRC, and pushes reconstructed
// envelopes onto dest's inbox. Any error ends the connection; the writer
// side's next write (or the peer's reconnector) re-establishes it.
func (t *sockTransport) serveConn(conn net.Conn, src, dest int) {
	u := t.u
	r := u.ranks[dest]
	br := bufio.NewReaderSize(conn, 64<<10)
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	for {
		conn.SetReadDeadline(time.Now().Add(t.opt.liveness))
		body, buf, err := frame.Read(br, *bp, maxFrameLen)
		*bp = buf
		if err == nil && t.deliverFrame(r, src, body) {
			continue
		}
		var ne net.Error
		switch {
		case err == nil || errors.Is(err, frame.ErrCorrupt):
			// Stream desynced or body malformed; only a fresh connection
			// recovers.
			r.st.Inc(cCorruptionsDetected)
			u.trace(dest, TraceCorrupt, int64(ackTypeID), 0)
		case errors.As(err, &ne) && ne.Timeout() && !t.closed.Load():
			// Liveness expiry: the peer wrote nothing — not even a
			// heartbeat — within the deadline. Declare the connection
			// dead; the peer's writer will notice and reconnect.
			r.st.Inc(cHeartbeatMisses)
			u.trace(dest, TraceHeartbeatMiss, int64(src), 0)
		}
		return
	}
}

// deliverFrame parses one CRC-verified frame body (kind byte + payload) and
// pushes the reconstructed envelope. It reports false on a malformed body
// (possible only through transport corruption that survived the frame CRC,
// or a protocol bug).
func (t *sockTransport) deliverFrame(r *Rank, src int, body []byte) bool {
	u := t.u
	switch body[0] {
	case frameHeartbeat:
		return true
	case frameAck:
		if len(body) != 1+4+8+8 {
			return false
		}
		typ := int32(binary.LittleEndian.Uint32(body[1:]))
		seq := binary.LittleEndian.Uint64(body[5:])
		gen := binary.LittleEndian.Uint64(body[13:])
		if typ < 0 || int(typ) >= len(u.types) {
			return false
		}
		r.inbox.Push(envelope{
			typeID: ackTypeID, src: int32(src), seq: seq, gen: gen, data: ackBody{typ: typ},
		})
		return true
	case frameData:
		if len(body) < 1+4+8+8+8+8+4 {
			return false
		}
		typ := int32(binary.LittleEndian.Uint32(body[1:]))
		seq := binary.LittleEndian.Uint64(body[5:])
		gen := binary.LittleEndian.Uint64(body[13:])
		qid := int64(binary.LittleEndian.Uint64(body[21:]))
		sum := binary.LittleEndian.Uint64(body[29:])
		nlin := binary.LittleEndian.Uint32(body[37:])
		b := body[41:]
		// Every envelope that crosses a link is sequenced; seq 0 would
		// bypass the receiver's dedup window (deliverEnvelope).
		if seq == 0 || typ < 0 || int(typ) >= len(u.types) || uint64(nlin)*8+4 > uint64(len(b)) {
			return false
		}
		var lin []uint64
		if nlin > 0 {
			lin = make([]uint64, nlin)
			for i := range lin {
				lin[i] = binary.LittleEndian.Uint64(b[i*8:])
			}
			b = b[nlin*8:]
		}
		plen := binary.LittleEndian.Uint32(b)
		if uint64(plen)+4 != uint64(len(b)) {
			return false
		}
		// The payload outlives the frame buffer: copy it into a pooled
		// encode buffer and hand the receiver a single-reference payload,
		// which deliverEnvelope releases on every exit path. The frame CRC
		// serveConn just verified covers these bytes, so the end-to-end
		// codec checksum (sum) need not be recomputed — unless the fault
		// plan corrupts payloads, which it does after sealing sum and before
		// the frame is built: then sum is the only check that sees it.
		eb := encBufPool.Get().(*encBuf)
		eb.b = append(eb.b[:0], b[4:]...)
		eb.refs.Store(1)
		r.inbox.Push(envelope{
			typeID: typ, src: int32(src), seq: seq, gen: gen, qid: qid,
			data: wirePayload{b: eb.b, sum: sum, eb: eb, verified: u.fp.Corrupt == 0}, lin: lin,
		})
		return true
	default:
		return false
	}
}

// send implements Transport.send: serialize the envelope into a frame and
// write it on the (src → dest) link. Never blocks on the peer; every failure
// mode drops the frame and lets the reliable layer recover it.
func (t *sockTransport) send(src, dest int, e envelope) {
	if src == dest {
		// Self-sends bypass the sockets (a sequenced one, under a plan that
		// injects link faults, still reaches here); the delivery reference
		// transfers to the receiver as on the in-process backend.
		t.u.ranks[dest].inbox.Push(e)
		return
	}
	if t.closed.Load() {
		if wp, ok := e.data.(wirePayload); ok {
			wp.release()
		}
		return
	}
	bp := framePool.Get().(*[]byte)
	var f []byte
	switch data := e.data.(type) {
	case ackBody:
		f = frame.Begin((*bp)[:0], frameAck)
		f = binary.LittleEndian.AppendUint32(f, uint32(data.typ))
		f = binary.LittleEndian.AppendUint64(f, e.seq)
		f = binary.LittleEndian.AppendUint64(f, e.gen)
	case wirePayload:
		f = frame.Begin((*bp)[:0], frameData)
		f = binary.LittleEndian.AppendUint32(f, uint32(e.typeID))
		f = binary.LittleEndian.AppendUint64(f, e.seq)
		f = binary.LittleEndian.AppendUint64(f, e.gen)
		f = binary.LittleEndian.AppendUint64(f, uint64(e.qid))
		f = binary.LittleEndian.AppendUint64(f, data.sum)
		f = binary.LittleEndian.AppendUint32(f, uint32(len(e.lin)))
		for _, id := range e.lin {
			f = binary.LittleEndian.AppendUint64(f, id)
		}
		f = binary.LittleEndian.AppendUint32(f, uint32(len(data.b)))
		f = append(f, data.b...)
		data.release() // the frame now carries the bytes; the sender's reference is spent
	default:
		// Unencodable payload (a non-wire batch); unreachable — start()
		// validates every type — but never panic on the send path.
		framePool.Put(bp)
		t.u.ranks[src].st.Inc(cFramesDropped)
		return
	}
	f = frame.Seal(f)
	t.links[src][dest].write(f, false)
	*bp = f[:0]
	framePool.Put(bp)
}

// write puts one built frame on the link's connection, applying the socket
// fault schedule. Heartbeats (hb) don't advance the fault clock and are
// never counted as drops.
func (l *sockLink) write(frame []byte, hb bool) {
	t := l.t
	st := t.u.ranks[l.src].st
	drop := func() {
		if !hb {
			st.Inc(cFramesDropped)
		}
	}
	l.mu.Lock()
	if l.dead || t.closed.Load() {
		l.mu.Unlock()
		drop()
		return
	}
	f := l.frames
	if !hb {
		l.frames++
		f = l.frames
		if l.killDueLocked(f) {
			// Injected disconnect/flap: the triggering frame dies with the
			// connection; the reconnector takes over.
			l.closeConnLocked()
			l.spawnReconnectorLocked()
			l.mu.Unlock()
			drop()
			return
		}
	}
	if l.blackholedLocked(f) {
		l.mu.Unlock()
		drop()
		return
	}
	conn := l.conn
	if conn == nil {
		l.spawnReconnectorLocked()
		l.mu.Unlock()
		drop()
		return
	}
	conn.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := conn.Write(frame)
	if err == nil {
		l.lastWriteNs = obs.Now()
		l.mu.Unlock()
		return
	}
	l.closeConnLocked()
	l.spawnReconnectorLocked()
	l.mu.Unlock()
	drop()
}

// killDueLocked reports whether the fault schedule kills the connection on
// frame f, consuming the matching trigger. Caller holds l.mu.
func (l *sockLink) killDueLocked(f uint64) bool {
	fp := l.t.opt.Faults
	if fp == nil {
		return false
	}
	for i, d := range fp.Disconnects {
		if d.Src == l.src && d.Dest == l.dest && !l.discFired[i] && f >= max(d.AfterFrames, 1) {
			l.discFired[i] = true
			return true
		}
	}
	for i, fl := range fp.Flaps {
		if fl.Src == l.src && fl.Dest == l.dest && fl.Period > 0 &&
			l.flapFired[i] < fl.Count && f%fl.Period == 0 {
			l.flapFired[i]++
			return true
		}
	}
	return false
}

// blackholedLocked reports whether frame f falls inside an open partition
// window on this link. Caller holds l.mu.
func (l *sockLink) blackholedLocked(f uint64) bool {
	fp := l.t.opt.Faults
	if fp == nil {
		return false
	}
	for i, p := range fp.Partitions {
		if p.Src == l.src && p.Dest == l.dest && !l.partClosed[i] &&
			f >= p.FromFrame && (p.ToFrame <= 0 || f < p.ToFrame) {
			return true
		}
	}
	return false
}

// closeConnLocked drops the link's connection. Caller holds l.mu.
func (l *sockLink) closeConnLocked() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// spawnReconnectorLocked starts the link's reconnect goroutine if none is
// running. Caller holds l.mu; close() sets closed before acquiring every
// link's mu, so an Add here happens-before its wg.Wait.
func (l *sockLink) spawnReconnectorLocked() {
	if l.reconnecting || l.dead || l.t.closed.Load() {
		return
	}
	l.reconnecting = true
	l.t.wg.Add(1)
	go l.reconnect()
}

// reconnect re-establishes the link's connection with capped exponential
// backoff and deterministic jitter. On success it marks every unacknowledged
// envelope bound for the peer due-now, so frames lost in the dead connection
// replay through the retransmit path at the sender's next poll. Exhausting
// the budget escalates to the crash-stop path: the link is marked dead and a
// FaultTransport rank fault aborts the epoch (recovery heals the link and
// grants a fresh budget via healEpoch).
func (l *sockLink) reconnect() {
	t := l.t
	defer t.wg.Done()
	stop := func() {
		l.mu.Lock()
		l.reconnecting = false
		l.mu.Unlock()
	}
	u := t.u
	for attempt := 1; ; attempt++ {
		if t.closed.Load() {
			stop()
			return
		}
		if attempt > t.budget {
			l.mu.Lock()
			l.dead = true
			l.reconnecting = false
			l.mu.Unlock()
			u.ranks[l.src].st.Inc(cLinkDeaths)
			u.trace(l.src, TraceLinkDead, int64(ackTypeID), int64(l.dest))
			u.raiseFault(RankFault{
				Kind: FaultTransport, Rank: l.dest, Epoch: u.epochSeq.Load(),
				Detail: fmt.Sprintf("link %d->%d: reconnect budget (%d attempts) exhausted on %s transport",
					l.src, l.dest, t.budget, t.Name()),
			})
			return
		}
		timer := time.NewTimer(l.backoff(attempt))
		select {
		case <-t.done:
			timer.Stop()
			stop()
			return
		case <-timer.C:
		}
		conn, err := t.dialLink(l.src, l.dest)
		if err != nil {
			continue
		}
		l.mu.Lock()
		if t.closed.Load() || l.dead {
			l.reconnecting = false
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conn = conn
		l.lastWriteNs = obs.Now()
		l.reconnecting = false
		l.mu.Unlock()
		n := u.ranks[l.src].requeueOutstanding(l.dest)
		st := u.ranks[l.src].st
		st.Inc(cReconnects)
		st.Add(cFramesRequeued, int64(n))
		u.trace(l.src, TraceReconnect, int64(l.dest), int64(attempt))
		return
	}
}

// backoff returns the sleep before reconnect attempt n: exponential from
// reconnectBase, capped at reconnectMax, spread by a deterministic factor in
// [0.5, 1.5) keyed on (link, attempt) so a flock of links killed together
// doesn't redial in lockstep.
func (l *sockLink) backoff(attempt int) time.Duration {
	t := l.t
	d := t.opt.reconnectBase << min(attempt-1, 20)
	if d <= 0 || d > t.opt.reconnectMax {
		d = t.opt.reconnectMax
	}
	h := splitmix64(uint64(l.src)<<40 | uint64(l.dest)<<20 | uint64(attempt))
	f := 0.5 + float64(h>>11)/(1<<53)
	return time.Duration(float64(d) * f)
}

// heartbeatLoop keeps quiet links alive: every heartbeat/2 it writes a
// heartbeat frame on each link idle for at least heartbeat, so the peer's
// liveness deadline only expires when the connection is actually gone (or a
// partition window swallows the heartbeats too — by design).
func (t *sockTransport) heartbeatLoop() {
	defer t.wg.Done()
	// One static heartbeat frame serves every link.
	hb := frame.Seal(frame.Begin(nil, frameHeartbeat))
	ticker := time.NewTicker(t.opt.heartbeat / 2)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
		}
		now := obs.Now()
		for _, row := range t.links {
			for _, l := range row {
				if l == nil {
					continue
				}
				l.mu.Lock()
				idle := l.conn != nil && now-l.lastWriteNs >= int64(t.opt.heartbeat)
				l.mu.Unlock()
				if idle {
					l.write(hb, true)
				}
			}
		}
	}
}

// healEpoch implements Transport.healEpoch: during epoch recovery every
// link's failure state is reset — open partition windows close, dead links
// come back with a fresh reconnect budget — so the replay is not doomed by
// the outage that aborted the attempt. Disconnect and flap triggers stay
// consumed (they are once-per-run, like FaultPlan.Crashes).
func (t *sockTransport) healEpoch() {
	for _, row := range t.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if fp := t.opt.Faults; fp != nil {
				for i, p := range fp.Partitions {
					if p.Src == l.src && p.Dest == l.dest && l.frames >= p.FromFrame {
						l.partClosed[i] = true
					}
				}
			}
			l.dead = false
			if l.conn == nil {
				l.spawnReconnectorLocked()
			}
			l.mu.Unlock()
		}
	}
}

// close implements Transport.close: stop accepting, kill every connection,
// join every goroutine. Safe to call at any point after construction (start
// error paths included); idempotent.
func (t *sockTransport) close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.done)
	for _, ln := range t.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, row := range t.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			l.mu.Lock()
			l.closeConnLocked()
			l.mu.Unlock()
		}
	}
	t.readMu.Lock()
	for _, c := range t.readers {
		c.Close()
	}
	for c := range t.pending {
		c.Close()
	}
	t.readMu.Unlock()
	t.wg.Wait()
	if t.ownDir && t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return nil
}
