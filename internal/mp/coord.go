package mp

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"declpat/internal/am"
	"declpat/internal/harness"
	"declpat/internal/obs"
)

// Coordinator is the launcher-side control-plane server for one fleet
// attempt: it accepts one connection per worker, runs the hello/welcome
// handshake and the data-plane address exchange, then serves control rounds
// — barriers (plain and checkpoint-commit votes), all-gathers, detector
// waves — one at a time. SPMD lockstep guarantees each worker has at most
// one outstanding collective, and the fleet at most one open round; anything
// else is a protocol violation that aborts the attempt.
//
// The coordinator is also the fleet's recovery authority: it records every
// served gather in its log, advances the committed restart point when a
// commit vote completes, and on any abort (fault report, dead connection,
// timed-out round, goodbye) trims the log to the committed prefix so the
// next attempt replays exactly what the committed checkpoint observed.
type coordinator struct {
	ln   net.Listener
	spec coordSpec

	events chan coordEvent
	conns  []*wconn

	// Round/commit state, owned by the event loop.
	round     *round
	committed int64
	commitLen int
	log       [][]int64
	armKill   bool

	joined    int
	addrs     [][]string
	addrsIn   int
	addrsDone bool

	results   map[int][]int64
	resultsIn int
	complete  []bool // workers that shipped all results (fResultDone)
	departed  int    // worker that said goodbye, -1 otherwise

	// Fleet timeline state: trace records streamed from workers, already
	// aligned onto this process's timebase (TS += the batch's offset, W
	// stamped), plus each worker's last clock estimate for the merged meta.
	traceRecs []obs.Record
	clockErr  []int64 // per worker; -1 = no estimate reported yet
	straggler *stragglerTracker
}

// coordSpec configures one attempt.
type coordSpec struct {
	Workers int
	Ranks   int
	RunID   uint64
	JobJSON []byte
	CkptDir string
	// RootSeed derives each worker's fault seed (harness.WorkerSeed).
	RootSeed uint64
	// Committed / Log carry the restart state into this attempt: the last
	// committed epoch (-1 = none) and the gather log's committed prefix.
	Committed int64
	Log       [][]int64
	// Kill is the seeded kill schedule; armed only when ArmKill (attempt 0).
	Kill    *KillSpec
	ArmKill bool
	// OnKill delivers entry/term kill triggers to the launcher (which owns
	// the worker processes). Must not block.
	OnKill func(worker int, mode string)
	// OnStraggler delivers per-epoch imbalance summaries as the streamed
	// phase data completes each epoch. Called from the event loop — must not
	// block. Nil disables.
	OnStraggler func(StragglerStat)
	// RoundTimeout bounds every control round (and the join/addr phases): a
	// round that cannot complete — a worker wedged, a one-way partition
	// swallowing its frames — aborts the attempt instead of hanging the
	// fleet.
	RoundTimeout time.Duration
	// Liveness is the per-connection read deadline; coordinator heartbeats
	// feed the workers' deadlines at Liveness/4 intervals.
	Liveness time.Duration
	Logf     func(format string, args ...any)
}

// round is the single open collective round.
type round struct {
	kind    byte // fBarrier, fGather, or fWaveStart
	tag     int64
	seq     uint64
	entered []bool
	count   int
	vals    [][]int64 // per-worker gather slices
	wave    am.WaveSample
	starter int // wave: the worker that started it
	opened  time.Time
}

// coordEvent is one input to the event loop: an admitted worker's frame, a
// new connection's hello (conn set), a reader's dead connection (down), or a
// frame the reader refused (err set, down not).
type coordEvent struct {
	worker int
	kind   byte
	body   []byte
	conn   net.Conn
	err    error
	down   bool
}

// wconn is one worker's connection from the coordinator's side.
type wconn struct {
	conn  net.Conn
	alive bool
}

// attemptOutcome is what one coordinator run reports back to the launcher.
type attemptOutcome struct {
	ok    bool
	err   error
	clean bool // a worker departed via goodbye (not a crash)
	// committed / log are the restart state for the next attempt.
	committed int64
	log       [][]int64
	results   map[int][]int64
	// trace is the attempt's merged, offset-corrected record stream (empty
	// when the job streams no traces); clockErr the largest error bound any
	// worker reported.
	trace    []obs.Record
	clockErr int64
}

func newCoordinator(spec coordSpec) (*coordinator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mp: coordinator listen: %w", err)
	}
	if spec.RoundTimeout <= 0 {
		spec.RoundTimeout = 30 * time.Second
	}
	if spec.Liveness <= 0 {
		spec.Liveness = 10 * time.Second
	}
	if spec.Logf == nil {
		spec.Logf = func(string, ...any) {}
	}
	c := &coordinator{
		ln:        ln,
		spec:      spec,
		events:    make(chan coordEvent, 64),
		conns:     make([]*wconn, spec.Workers),
		committed: spec.Committed,
		commitLen: len(spec.Log),
		log:       append([][]int64(nil), spec.Log...),
		armKill:   spec.ArmKill && spec.Kill != nil,
		addrs:     make([][]string, spec.Workers),
		results:   map[int][]int64{},
		complete:  make([]bool, spec.Workers),
		departed:  -1,
		clockErr:  make([]int64, spec.Workers),
		straggler: newStragglerTracker(spec.Ranks),
	}
	for i := range c.clockErr {
		c.clockErr[i] = -1
	}
	go c.acceptLoop()
	return c, nil
}

func (c *coordinator) addr() string { return c.ln.Addr().String() }

// acceptLoop admits connections and forwards their hellos to the event
// loop. A connection that does not open with a valid hello is answered with
// an abort naming why and dropped; the join-phase timer catches a fleet that
// never fills up.
func (c *coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetDeadline(time.Now().Add(c.spec.RoundTimeout))
			kind, body, err := readFrame(conn)
			var h hello
			if err == nil && kind != fHello {
				err = fmt.Errorf("%w: expected hello, got %s", ErrDecode, kindName(kind))
			}
			if err == nil {
				err = decodeBody(kind, body, &h)
			}
			if err != nil {
				writeFrame(conn, fAbort, abortMsg{Reason: err.Error()})
				conn.Close()
				return
			}
			conn.SetDeadline(time.Time{})
			c.events <- coordEvent{worker: h.Worker, kind: fHello, conn: conn}
		}(conn)
	}
}

// readerLoop pumps one admitted worker's frames into the event loop.
func (c *coordinator) readerLoop(worker int, conn net.Conn) {
	for {
		conn.SetReadDeadline(time.Now().Add(c.spec.Liveness))
		kind, body, err := readFrame(conn)
		if err != nil {
			c.events <- coordEvent{worker: worker, down: true, err: err}
			return
		}
		if kind == fHeartbeat {
			continue
		}
		if kind == fClockPing {
			// Answer inline rather than through the event loop: the pong's
			// usefulness is its tight RTT, and writeFrame issues exactly one
			// conn.Write per frame, so this write cannot interleave with the
			// event loop's (net.Conn serializes concurrent writes).
			var m clockMsg
			if err := decodeBody(kind, body, &m); err != nil {
				c.events <- coordEvent{worker: worker, err: err}
				return
			}
			conn.SetWriteDeadline(time.Now().Add(c.spec.Liveness))
			writeFrame(conn, fClockPong, clockMsg{T1: m.T1, Remote: obs.Now()})
			continue
		}
		c.events <- coordEvent{worker: worker, kind: kind, body: body}
	}
}

// run drives one attempt to its outcome. It always closes the listener and
// every connection before returning.
func (c *coordinator) run() attemptOutcome {
	defer c.ln.Close()
	defer func() {
		for _, wc := range c.conns {
			if wc != nil {
				wc.conn.Close()
			}
		}
	}()

	hb := time.NewTicker(c.spec.Liveness / 4)
	defer hb.Stop()
	phase := time.NewTimer(c.spec.RoundTimeout) // join + addr-exchange budget
	defer phase.Stop()

	for {
		select {
		case ev := <-c.events:
			if out, done := c.handle(ev); done {
				return out
			}
		case <-hb.C:
			for _, wc := range c.conns {
				if wc != nil && wc.alive {
					c.send(wc, fHeartbeat, nil)
				}
			}
			if c.round != nil && time.Since(c.round.opened) > c.spec.RoundTimeout {
				return c.abortFleet(false, fmt.Errorf(
					"mp: %s round timed out after %v (%d of %d workers entered)",
					kindName(c.round.kind), c.spec.RoundTimeout, c.round.count, c.spec.Workers))
			}
		case <-phase.C:
			if !c.addrsDone {
				return c.abortFleet(false, fmt.Errorf(
					"mp: fleet never assembled: %d of %d workers joined, address exchange %v",
					c.joined, c.spec.Workers, c.addrsDone))
			}
		}
	}
}

func (c *coordinator) send(wc *wconn, kind byte, body any) {
	wc.conn.SetWriteDeadline(time.Now().Add(c.spec.Liveness))
	if err := writeFrame(wc.conn, kind, body); err != nil {
		// The reader will surface the dead connection; just stop writing.
		wc.alive = false
	}
}

func (c *coordinator) broadcast(kind byte, body any) {
	for _, wc := range c.conns {
		if wc != nil && wc.alive {
			c.send(wc, kind, body)
		}
	}
}

// handle processes one event; done=true ends the attempt with out.
func (c *coordinator) handle(ev coordEvent) (out attemptOutcome, done bool) {
	switch {
	case ev.down:
		return c.workerDown(ev)
	case ev.err != nil:
		return c.abortFleet(false, fmt.Errorf("mp: worker %d: %w", ev.worker, ev.err)), true
	case ev.conn != nil:
		c.admit(ev)
		return attemptOutcome{}, false
	}
	// A hello from an admitted worker lands in the default case: its
	// connection is already welcomed, and a second hello is protocol damage.
	switch ev.kind {
	case fAddrSet:
		return c.addrSet(ev)
	case fBarrier:
		return c.barrierEntry(ev)
	case fGather:
		return c.gatherEntry(ev)
	case fWaveStart:
		return c.waveStart(ev)
	case fWaveReply:
		return c.waveReply(ev)
	case fFinish:
		c.broadcast(fFinish, nil)
	case fFault:
		var f am.RankFault
		if err := decodeBody(ev.kind, ev.body, &f); err != nil {
			return c.abortFleet(false, err), true
		}
		c.spec.Logf("mp: worker %d reported fault: %v", ev.worker, &f)
		return c.abortFleet(false, fmt.Errorf("mp: worker %d fault: %w", ev.worker, &f)), true
	case fGoodbye:
		if wc := c.conns[ev.worker]; wc != nil && wc.alive {
			c.send(wc, fGoodbyeAck, nil)
		}
		c.departed = ev.worker
		c.spec.Logf("mp: worker %d departed cleanly (goodbye)", ev.worker)
		return c.abortFleet(true, fmt.Errorf("mp: worker %d departed cleanly", ev.worker)), true
	case fTrace:
		var tm traceMsg
		if err := decodeBody(ev.kind, ev.body, &tm); err != nil {
			return c.abortFleet(false, err), true
		}
		c.foldTrace(tm)
	case fResult:
		var r resultMsg
		if err := decodeBody(ev.kind, ev.body, &r); err != nil {
			return c.abortFleet(false, err), true
		}
		c.placeResult(r)
	case fResultDone:
		if !c.complete[ev.worker] {
			c.complete[ev.worker] = true
			c.resultsIn++
		}
		if c.resultsIn == c.spec.Workers {
			return attemptOutcome{
				ok: true, committed: c.committed, log: c.log[:c.commitLen], results: c.results,
				trace: c.traceRecs, clockErr: c.maxClockErr(),
			}, true
		}
	default:
		return c.abortFleet(false, fmt.Errorf(
			"%w: unexpected %s frame from worker %d", ErrDecode, kindName(ev.kind), ev.worker)), true
	}
	return attemptOutcome{}, false
}

// admit welcomes a worker connection.
func (c *coordinator) admit(ev coordEvent) {
	w := ev.worker
	if w < 0 || w >= c.spec.Workers || c.conns[w] != nil {
		writeFrame(ev.conn, fAbort, abortMsg{Reason: fmt.Sprintf("worker index %d invalid or already joined", w)})
		ev.conn.Close()
		return
	}
	lo, hi := rankRange(c.spec.Ranks, c.spec.Workers, w)
	wel := welcome{
		RunID:        c.spec.RunID,
		Workers:      c.spec.Workers,
		Ranks:        c.spec.Ranks,
		Lo:           lo,
		Hi:           hi,
		RestartEpoch: maxI64(c.committed, 0),
		HaveCkpt:     c.committed >= 0,
		Log:          c.log[:c.commitLen],
		CkptDir:      c.spec.CkptDir,
		WorkerSeed:   harness.WorkerSeed(c.spec.RootSeed, w, lo, hi),
		KillEpoch:    -1,
		KillMode:     killNone,
		Job:          c.spec.JobJSON,
	}
	if c.armKill && c.spec.Kill.Mode == "body" && c.spec.Kill.Worker == w {
		wel.KillEpoch = c.spec.Kill.Epoch
		wel.KillMode = killBody
	}
	wc := &wconn{conn: ev.conn, alive: true}
	c.conns[w] = wc
	c.send(wc, fWelcome, wel)
	c.joined++
	go c.readerLoop(w, ev.conn)
}

// addrSet collects one worker's data-plane listener addresses; when all are
// in, the concatenated table (worker order = global rank order, since rank
// ranges are contiguous and ascending) broadcasts to everyone.
func (c *coordinator) addrSet(ev coordEvent) (attemptOutcome, bool) {
	var addrs []string
	if err := decodeBody(ev.kind, ev.body, &addrs); err != nil {
		return c.abortFleet(false, err), true
	}
	lo, hi := rankRange(c.spec.Ranks, c.spec.Workers, ev.worker)
	if len(addrs) != hi-lo {
		return c.abortFleet(false, fmt.Errorf(
			"%w: worker %d registered %d addresses, hosts %d ranks", ErrDecode, ev.worker, len(addrs), hi-lo)), true
	}
	if c.addrs[ev.worker] == nil {
		c.addrsIn++
	}
	c.addrs[ev.worker] = addrs
	if c.addrsIn == c.spec.Workers {
		table := make([]string, 0, c.spec.Ranks)
		for w := 0; w < c.spec.Workers; w++ {
			table = append(table, c.addrs[w]...)
		}
		c.broadcast(fAddrTable, table)
		c.addrsDone = true
	}
	return attemptOutcome{}, false
}

// openRound validates round-typing: joining an open round must match its
// kind and tag/seq; opening is only legal when no round is open.
func (c *coordinator) openRound(kind byte, tag int64, seq uint64, starter int) error {
	if c.round == nil {
		c.round = &round{
			kind: kind, tag: tag, seq: seq, starter: starter,
			entered: make([]bool, c.spec.Workers),
			vals:    make([][]int64, c.spec.Workers),
			opened:  time.Now(),
		}
		return nil
	}
	r := c.round
	if r.kind != kind || r.tag != tag || r.seq != seq {
		return fmt.Errorf("%w: %s(tag=%d,seq=%d) entry while %s(tag=%d,seq=%d) round is open",
			ErrDecode, kindName(kind), tag, seq, kindName(r.kind), r.tag, r.seq)
	}
	return nil
}

func (c *coordinator) enter(worker int) error {
	if c.round.entered[worker] {
		return fmt.Errorf("%w: worker %d entered a %s round twice", ErrDecode, worker, kindName(c.round.kind))
	}
	c.round.entered[worker] = true
	c.round.count++
	return nil
}

func (c *coordinator) barrierEntry(ev coordEvent) (attemptOutcome, bool) {
	var tag int64
	if err := decodeBody(ev.kind, ev.body, &tag); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.openRound(fBarrier, tag, 0, ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.enter(ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	if c.round.count < c.spec.Workers {
		return attemptOutcome{}, false
	}
	// Full entry. A tagged barrier is a checkpoint-commit vote: every
	// worker's slot file for this epoch is on disk.
	if tag >= 0 && c.armKill && c.spec.Kill.Mode == "entry" && tag == c.spec.Kill.Epoch {
		// Seeded kill between the commit vote and its ack: all workers
		// voted, but the commit is NOT recorded and the release is withheld
		// — the fleet must recover from the previous committed epoch. The
		// launcher SIGKILLs the target; the dead connection aborts the
		// attempt.
		c.armKill = false
		c.spec.Logf("mp: withholding commit of epoch %d; killing worker %d at vote", tag, c.spec.Kill.Worker)
		c.spec.OnKill(c.spec.Kill.Worker, "entry")
		return attemptOutcome{}, false
	}
	if tag >= 0 {
		c.committed = tag
		c.commitLen = len(c.log)
	}
	c.round = nil
	c.broadcast(fBarrierRelease, tag)
	if tag >= 0 && c.armKill && c.spec.Kill.Mode == "term" && tag == c.spec.Kill.Epoch {
		// Graceful-departure schedule: release normally, then SIGTERM the
		// target so it drains and says goodbye mid-epoch.
		c.armKill = false
		c.spec.Logf("mp: SIGTERMing worker %d after epoch %d commit", c.spec.Kill.Worker, tag)
		c.spec.OnKill(c.spec.Kill.Worker, "term")
	}
	return attemptOutcome{}, false
}

func (c *coordinator) gatherEntry(ev coordEvent) (attemptOutcome, bool) {
	var g gatherMsg
	if err := decodeBody(ev.kind, ev.body, &g); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.openRound(fGather, 0, g.Seq, ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.enter(ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	lo, hi := rankRange(c.spec.Ranks, c.spec.Workers, ev.worker)
	if len(g.Vals) != hi-lo {
		return c.abortFleet(false, fmt.Errorf(
			"%w: worker %d gathered %d values, hosts %d ranks", ErrDecode, ev.worker, len(g.Vals), hi-lo)), true
	}
	c.round.vals[ev.worker] = g.Vals
	if c.round.count < c.spec.Workers {
		return attemptOutcome{}, false
	}
	full := make([]int64, 0, c.spec.Ranks)
	for w := 0; w < c.spec.Workers; w++ {
		full = append(full, c.round.vals[w]...)
	}
	c.log = append(c.log, full)
	seq := c.round.seq
	c.round = nil
	c.broadcast(fGatherRelease, gatherMsg{Seq: seq, Vals: full})
	return attemptOutcome{}, false
}

func (c *coordinator) waveStart(ev coordEvent) (attemptOutcome, bool) {
	var s am.WaveSample
	if err := decodeBody(ev.kind, ev.body, &s); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.openRound(fWaveStart, 0, 0, ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	if err := c.enter(ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	c.round.wave = s
	if c.spec.Workers == 1 {
		c.finishWave()
		return attemptOutcome{}, false
	}
	for w, wc := range c.conns {
		if w != ev.worker && wc != nil && wc.alive {
			c.send(wc, fWavePoll, nil)
		}
	}
	return attemptOutcome{}, false
}

func (c *coordinator) waveReply(ev coordEvent) (attemptOutcome, bool) {
	var rep waveReply
	if err := decodeBody(ev.kind, ev.body, &rep); err != nil {
		return c.abortFleet(false, err), true
	}
	if c.round == nil || c.round.kind != fWaveStart {
		// A reply can straggle in after the wave round aborted; ignore.
		return attemptOutcome{}, false
	}
	if err := c.enter(ev.worker); err != nil {
		return c.abortFleet(false, err), true
	}
	if rep.OK {
		c.round.wave.Add(rep.Sample)
	} else {
		// The worker is shutting down and cannot sample: poison the merged
		// sample so the detector's quiescence predicate cannot pass on this
		// wave (it retries; it must never falsely terminate).
		c.round.wave.Active++
	}
	if c.round.count == c.spec.Workers {
		c.finishWave()
	}
	return attemptOutcome{}, false
}

func (c *coordinator) finishWave() {
	starter := c.round.starter
	merged := c.round.wave
	c.round = nil
	if wc := c.conns[starter]; wc != nil && wc.alive {
		c.send(wc, fWaveResult, merged)
	}
}

// foldTrace ingests one streamed trace batch: records are shifted onto this
// process's timebase with the batch's offset, stamped with the worker index,
// and accumulated for the merged fleet timeline; kernel-phase spans feed the
// straggler tracker (durations, so offset-independent). A malformed JSON
// body degrades to a logged skip — a damaged observability batch must never
// take a healthy fleet down.
func (c *coordinator) foldTrace(tm traceMsg) {
	if tm.Worker < 0 || tm.Worker >= c.spec.Workers {
		c.spec.Logf("mp: trace batch from out-of-range worker %d; dropped", tm.Worker)
		return
	}
	var recs []obs.Record
	if err := json.Unmarshal(tm.Records, &recs); err != nil {
		c.spec.Logf("mp: trace batch from worker %d undecodable: %v", tm.Worker, err)
		return
	}
	c.clockErr[tm.Worker] = tm.ErrBound
	if c.spec.OnStraggler != nil {
		for _, st := range c.straggler.fold(recs) {
			c.spec.OnStraggler(st)
		}
	} else {
		c.straggler.fold(recs)
	}
	c.traceRecs = append(c.traceRecs, obs.AlignRecords(recs, tm.Worker, tm.Offset)...)
}

// maxClockErr returns the largest error bound any worker reported (0 when no
// worker streamed traces).
func (c *coordinator) maxClockErr() int64 {
	var worst int64
	for _, e := range c.clockErr {
		if e > worst {
			worst = e
		}
	}
	return worst
}

func (c *coordinator) placeResult(r resultMsg) {
	v := c.results[r.Vec]
	need := int(r.VertexLo) + len(r.Vals)
	if need > len(v) {
		grown := make([]int64, need)
		copy(grown, v)
		v = grown
	}
	copy(v[r.VertexLo:], r.Vals)
	c.results[r.Vec] = v
}

// workerDown handles a connection death. After a success or during an abort
// it is expected teardown; otherwise it is the fleet-fatal event (SIGKILL,
// crash, partition escalated by the liveness deadline).
func (c *coordinator) workerDown(ev coordEvent) (attemptOutcome, bool) {
	if wc := c.conns[ev.worker]; wc != nil {
		wc.alive = false
	}
	if c.complete[ev.worker] {
		// The worker shipped all its results and exited; its connection
		// closing is normal teardown, not a fleet failure. The attempt ends
		// when every worker's fResultDone is in.
		return attemptOutcome{}, false
	}
	c.spec.Logf("mp: worker %d control connection down: %v", ev.worker, ev.err)
	return c.abortFleet(false, fmt.Errorf("mp: worker %d connection lost: %w", ev.worker, ev.err)), true
}

// abortFleet broadcasts the abort, trims the gather log to the committed
// prefix, and returns the attempt's outcome.
func (c *coordinator) abortFleet(clean bool, err error) attemptOutcome {
	c.broadcast(fAbort, abortMsg{Clean: clean, Reason: err.Error()})
	// Drain trace batches already queued behind this event before the reply
	// channels close: aborted attempts are exactly the ones whose timeline
	// matters most. Bounded — only what is in the channel right now.
	for {
		select {
		case ev := <-c.events:
			var tm traceMsg
			if !ev.down && ev.kind == fTrace && decodeBody(ev.kind, ev.body, &tm) == nil {
				c.foldTrace(tm)
			}
		default:
			return attemptOutcome{
				ok: false, err: err, clean: clean,
				committed: c.committed, log: c.log[:c.commitLen],
				trace: c.traceRecs, clockErr: c.maxClockErr(),
			}
		}
	}
}

// vecIndices returns the sorted result-vector indices present.
func vecIndices(results map[int][]int64) []int {
	idxs := make([]int, 0, len(results))
	for i := range results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
