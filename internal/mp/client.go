package mp

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"declpat/internal/am"
	"declpat/internal/obs"
)

// Client is the worker-side half of the control plane: it implements
// am.ControlPlane over one TCP connection to the coordinator. A reader
// goroutine dispatches coordinator frames (releases, polls, broadcasts,
// aborts); ops write their request under a connection-level mutex and park
// on a reply channel. Ops never time out on their own — a stuck round is the
// coordinator's to detect (round timers) and a dead coordinator surfaces as
// a read error — so the only client-side deadlines are socket-level.
type Client struct {
	conn   net.Conn
	w      welcome
	worker int

	heartbeat time.Duration
	liveness  time.Duration

	wmu       sync.Mutex
	lastWrite atomic.Int64 // monotonic-ish: time.Now().UnixNano()

	// hooks wiring. The client dials before the universe exists (the welcome
	// carries the universe's configuration), so coordinator traffic can
	// arrive before SetHooks: aborts and finishes latch and deliver on
	// SetHooks; wave polls answer "not ready" (ok=false).
	hmu        sync.Mutex
	hooks      am.ControlHooks
	hooksSet   bool
	pendFinish bool
	pendAbort  *abortMsg

	// Reply channels, one per op family. The SPMD run has at most one
	// outstanding op at a time, so capacity 1 never blocks the reader.
	addrCh chan []string
	barCh  chan int64
	gatCh  chan gatherMsg
	wavCh  chan am.WaveSample
	byeCh  chan struct{}

	// down is closed when the connection is unusable (reader exit or abort
	// frame); err latches why. Parked ops unblock on it.
	down     chan struct{}
	downOnce sync.Once
	emu      sync.Mutex
	err      error

	gatherSeq atomic.Uint64
	stopHB    chan struct{}
	killed    atomic.Bool

	// clk estimates the coordinator-clock offset from ping/pong exchanges: a
	// burst at Dial seeds it, and every idle-interval heartbeat doubles as a
	// refinement probe.
	clk *offsetEstimator
}

var _ am.ControlPlane = (*Client)(nil)

// clientHeartbeat / clientLiveness are the control-plane keep-alive timings.
// The liveness deadline is generous: control rounds park workers for entire
// epoch bodies, so only the heartbeat stream (not round latency) feeds it.
const (
	clientHeartbeat = 100 * time.Millisecond
	clientLiveness  = 10 * time.Second
)

// Dial connects to the coordinator, performs the hello/welcome handshake,
// and starts the reader and heartbeat goroutines. The returned client's
// Welcome carries everything needed to build the worker's universe; call
// SetHooks once the universe exists.
func Dial(addr string, worker int) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("mp: dialing coordinator %s: %w", addr, err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(conn, fHello, hello{Worker: worker}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mp: hello: %w", err)
	}
	kind, body, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mp: reading welcome: %w", err)
	}
	if kind == fAbort {
		var a abortMsg
		decodeBody(kind, body, &a)
		conn.Close()
		return nil, fmt.Errorf("mp: coordinator rejected worker %d: %s", worker, a.Reason)
	}
	if kind != fWelcome {
		conn.Close()
		return nil, fmt.Errorf("%w: expected welcome, got %s", ErrDecode, kindName(kind))
	}
	var w welcome
	if err := decodeBody(kind, body, &w); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:      conn,
		w:         w,
		worker:    worker,
		heartbeat: clientHeartbeat,
		liveness:  clientLiveness,
		addrCh:    make(chan []string, 1),
		barCh:     make(chan int64, 1),
		gatCh:     make(chan gatherMsg, 1),
		wavCh:     make(chan am.WaveSample, 1),
		byeCh:     make(chan struct{}, 1),
		down:      make(chan struct{}),
		stopHB:    make(chan struct{}),
		clk:       newOffsetEstimator(obs.Now),
	}
	c.lastWrite.Store(time.Now().UnixNano())
	go c.readLoop()
	go c.heartbeatLoop()
	// Seed the clock-offset estimate with a small ping burst: pongs fold in
	// asynchronously via readLoop, and the min-RTT sample wins. Heartbeats
	// keep refining it for the rest of the run.
	for i := 0; i < 4; i++ {
		if c.sendPing() != nil {
			break
		}
	}
	return c, nil
}

// sendPing writes one clock probe stamped with the local monotonic clock.
func (c *Client) sendPing() error {
	return c.write(fClockPing, clockMsg{T1: obs.Now()})
}

// ClockEstimate returns the current coordinator-clock offset estimate
// (coordinator ≈ worker + offset) and its error bound; ok is false before the
// first pong.
func (c *Client) ClockEstimate() (offset, errBound int64, ok bool) {
	return c.clk.estimate()
}

// SendTrace ships one bounded batch of trace records to the coordinator for
// the merged fleet timeline. Best-effort: a failed write means the connection
// is down and the run is ending anyway.
func (c *Client) SendTrace(m traceMsg) error {
	return c.write(fTrace, m)
}

// Welcome returns the coordinator's fleet configuration for this worker.
func (c *Client) Welcome() welcome { return c.w }

// MPConfig builds the am.MPConfig this worker's universe runs under.
func (c *Client) MPConfig() am.MPConfig {
	return am.MPConfig{
		Plane:          c,
		Lo:             c.w.Lo,
		Hi:             c.w.Hi,
		RunID:          c.w.RunID,
		RestartEpoch:   c.w.RestartEpoch,
		HaveCheckpoint: c.w.HaveCkpt,
		CollectiveLog:  c.w.Log,
		CheckpointDir:  c.w.CkptDir,
		WorkerIndex:    c.worker,
	}
}

// SetHooks installs the universe callbacks and delivers any coordinator
// traffic that arrived before the universe existed.
func (c *Client) SetHooks(h am.ControlHooks) {
	c.hmu.Lock()
	c.hooks = h
	c.hooksSet = true
	finish := c.pendFinish
	abort := c.pendAbort
	c.pendFinish = false
	c.pendAbort = nil
	c.hmu.Unlock()
	if finish && h.RemoteFinish != nil {
		h.RemoteFinish()
	}
	if abort != nil && h.RemoteAbort != nil {
		h.RemoteAbort(fmt.Errorf("mp: fleet aborting: %s", abort.Reason), abort.Clean)
	}
}

// Close tears the control connection down; pending ops unblock with
// ErrPeerClosed.
func (c *Client) Close() {
	close(c.stopHB)
	c.conn.Close()
}

// Err returns the latched connection error, if any.
func (c *Client) Err() error {
	c.emu.Lock()
	defer c.emu.Unlock()
	return c.err
}

func (c *Client) fail(err error) {
	c.emu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.emu.Unlock()
	c.downOnce.Do(func() { close(c.down) })
}

func (c *Client) write(kind byte, body any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.liveness))
	err := writeFrame(c.conn, kind, body)
	c.lastWrite.Store(time.Now().UnixNano())
	if err != nil {
		c.fail(fmt.Errorf("mp: control write (%s): %w", kindName(kind), err))
	}
	return err
}

func (c *Client) heartbeatLoop() {
	t := time.NewTicker(c.heartbeat / 2)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if time.Now().UnixNano()-c.lastWrite.Load() >= int64(c.heartbeat) {
				// A clock ping serves double duty: it feeds the coordinator's
				// liveness deadline like a plain heartbeat, and its pong
				// refines the offset estimate across the run.
				if c.sendPing() != nil {
					return
				}
			}
		case <-c.stopHB:
			return
		case <-c.down:
			return
		}
	}
}

// readLoop dispatches coordinator frames until the connection dies.
func (c *Client) readLoop() {
	for {
		c.conn.SetReadDeadline(time.Now().Add(c.liveness))
		kind, body, err := readFrame(c.conn)
		if err != nil {
			err = fmt.Errorf("mp: control read: %w", err)
			c.fail(err)
			c.deliverAbort(abortMsg{Clean: false, Reason: err.Error()}, err)
			return
		}
		switch kind {
		case fHeartbeat:
		case fClockPong:
			var m clockMsg
			if err = decodeBody(kind, body, &m); err == nil {
				c.clk.sample(m.T1, m.Remote, obs.Now())
			}
		case fAddrTable:
			var table []string
			if err = decodeBody(kind, body, &table); err == nil {
				c.addrCh <- table
			}
		case fBarrierRelease:
			var tag int64
			if err = decodeBody(kind, body, &tag); err == nil {
				c.barCh <- tag
			}
		case fGatherRelease:
			var g gatherMsg
			if err = decodeBody(kind, body, &g); err == nil {
				c.gatCh <- g
			}
		case fWaveResult:
			var s am.WaveSample
			if err = decodeBody(kind, body, &s); err == nil {
				c.wavCh <- s
			}
		case fWavePoll:
			c.answerPoll()
		case fFinish:
			c.deliverFinish()
		case fGoodbyeAck:
			select {
			case c.byeCh <- struct{}{}:
			default:
			}
		case fAbort:
			var a abortMsg
			if err = decodeBody(kind, body, &a); err == nil {
				abort := fmt.Errorf("mp: fleet aborting: %s", a.Reason)
				c.fail(abort)
				c.deliverAbort(a, abort)
				// Keep reading: the goodbye ack can legitimately follow the
				// abort broadcast (a departing worker's goodbye aborts the
				// rest of the fleet, itself included).
			}
		default:
			err = fmt.Errorf("%w: unexpected %s frame from coordinator", ErrDecode, kindName(kind))
		}
		if err != nil {
			c.protoFail(err)
			return
		}
	}
}

func (c *Client) protoFail(err error) {
	c.fail(err)
	c.deliverAbort(abortMsg{Clean: false, Reason: err.Error()}, err)
	c.conn.Close()
}

func (c *Client) deliverFinish() {
	c.hmu.Lock()
	if !c.hooksSet {
		c.pendFinish = true
		c.hmu.Unlock()
		return
	}
	h := c.hooks
	c.hmu.Unlock()
	if h.RemoteFinish != nil {
		h.RemoteFinish()
	}
}

func (c *Client) deliverAbort(a abortMsg, err error) {
	c.hmu.Lock()
	if !c.hooksSet {
		if c.pendAbort == nil {
			c.pendAbort = &a
		}
		c.hmu.Unlock()
		return
	}
	h := c.hooks
	c.hmu.Unlock()
	if h.RemoteAbort != nil {
		h.RemoteAbort(err, a.Clean)
	}
}

func (c *Client) answerPoll() {
	c.hmu.Lock()
	h := c.hooks
	set := c.hooksSet
	c.hmu.Unlock()
	rep := waveReply{}
	if set && h.SampleWave != nil {
		if s, ok := h.SampleWave(); ok {
			rep = waveReply{OK: true, Sample: s}
		}
	}
	c.write(fWaveReply, rep)
}

// downErr is the error a parked op returns when the connection went down.
func (c *Client) downErr() error {
	if err := c.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%w: control connection down", ErrPeerClosed)
}

// ExchangeAddrs implements am.ControlPlane.
func (c *Client) ExchangeAddrs(local []string) ([]string, error) {
	if err := c.write(fAddrSet, local); err != nil {
		return nil, err
	}
	select {
	case table := <-c.addrCh:
		return table, nil
	case <-c.down:
		return nil, c.downErr()
	}
}

// WireBarrier implements am.ControlPlane. A release of the epoch tagged by
// an armed body-kill triggers the seeded self-SIGKILL: the commit vote
// completed (the checkpoint is the restart point) and the epoch body is
// about to run — the harshest moment to die.
func (c *Client) WireBarrier(epoch int64) error {
	if err := c.write(fBarrier, epoch); err != nil {
		return err
	}
	select {
	case tag := <-c.barCh:
		if tag != epoch {
			err := fmt.Errorf("%w: barrier release tagged %d, want %d", ErrDecode, tag, epoch)
			c.fail(err)
			return err
		}
		if c.w.KillMode == killBody && epoch == c.w.KillEpoch && c.killed.CompareAndSwap(false, true) {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not deliverable to a handler
		}
		return nil
	case <-c.down:
		return c.downErr()
	}
}

// WireGather implements am.ControlPlane.
func (c *Client) WireGather(local []int64) ([]int64, error) {
	seq := c.gatherSeq.Add(1)
	if err := c.write(fGather, gatherMsg{Seq: seq, Vals: local}); err != nil {
		return nil, err
	}
	select {
	case g := <-c.gatCh:
		if g.Seq != seq {
			err := fmt.Errorf("%w: gather release seq %d, want %d", ErrDecode, g.Seq, seq)
			c.fail(err)
			return nil, err
		}
		return g.Vals, nil
	case <-c.down:
		return nil, c.downErr()
	}
}

// WireWave implements am.ControlPlane. Only the worker hosting global rank 0
// calls this (it owns the four-counter driver).
func (c *Client) WireWave(local am.WaveSample) (am.WaveSample, error) {
	if err := c.write(fWaveStart, local); err != nil {
		return am.WaveSample{}, err
	}
	select {
	case s := <-c.wavCh:
		return s, nil
	case <-c.down:
		return am.WaveSample{}, c.downErr()
	}
}

// AnnounceFinish implements am.ControlPlane. Fire-and-forget: the
// coordinator rebroadcasts the finish to every worker (including this one,
// where it lands on an already-finished epoch as a no-op).
func (c *Client) AnnounceFinish() error {
	return c.write(fFinish, nil)
}

// ReportFault implements am.ControlPlane. Best-effort: if the write fails
// the connection is already down and the coordinator has (or will) notice.
func (c *Client) ReportFault(f am.RankFault) {
	c.write(fFault, f)
}

// Goodbye performs the graceful-departure handshake (SIGTERM drain): the
// coordinator acks the goodbye and aborts the rest of the fleet with the
// clean flag, so peers count a clean departure instead of tripping the
// heartbeat fault path. Returns once the ack arrives (or the connection
// dies, or the timeout expires).
func (c *Client) Goodbye(timeout time.Duration) error {
	if err := c.write(fGoodbye, nil); err != nil {
		return err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-c.byeCh:
		return nil
	case <-c.down:
		return c.downErr()
	case <-t.C:
		return fmt.Errorf("mp: goodbye ack timed out after %v", timeout)
	}
}
