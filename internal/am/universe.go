package am

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"declpat/internal/frame"
	"declpat/internal/obs"
)

// DetectorKind selects the termination-detection protocol used to end epochs.
type DetectorKind int

const (
	// DetectorAtomic keeps one shared counter (pending): the fast path
	// available because the simulated ranks share an address space.
	DetectorAtomic DetectorKind = iota
	// DetectorFourCounter runs a Mattern-style four-counter protocol with
	// explicit control messages: rank 0 repeatedly probes every rank for
	// (sent per message, received per handled batch, active) counters and
	// terminates the epoch after two consecutive identical quiescent
	// snapshots. This is what a real distributed deployment would run; it
	// exists both for fidelity and so that its overhead can be measured (E8).
	DetectorFourCounter
)

func (d DetectorKind) String() string {
	switch d {
	case DetectorAtomic:
		return "atomic"
	case DetectorFourCounter:
		return "four-counter"
	}
	return fmt.Sprintf("DetectorKind(%d)", int(d))
}

// LineageMode controls causal message lineage: stamping every sent message
// with the id of the handler invocation that produced it (sends issued by an
// epoch body carry a synthetic per-(epoch, rank) root id). Lineage rides the
// envelope through coalescing, retransmission, and recovery replay, and —
// when tracing is enabled — every handler invocation records a TraceHandler
// span carrying its own id and its parent's, from which internal/obs
// reconstructs the per-epoch causal DAG and its critical path.
type LineageMode int

const (
	// LineageAuto (the default) enables lineage exactly when tracing is
	// enabled: a traced run gets causal attribution for free, an untraced
	// run pays nothing.
	LineageAuto LineageMode = iota
	// LineageOff disables lineage stamping even in traced runs (E19 prices
	// the stamping against it).
	LineageOff
)

func (m LineageMode) String() string {
	switch m {
	case LineageAuto:
		return "auto"
	case LineageOff:
		return "off"
	}
	return fmt.Sprintf("LineageMode(%d)", int(m))
}

// envelope is one coalesced batch of messages of a single type, shipped
// between two ranks.
type envelope struct {
	typeID int32  // registered message type, or ackTypeID for acks
	src    int32  // sending rank
	seq    uint64 // per-(src, dest, type) sequence number from 1; 0 = unsequenced (deliverEnvelope)
	gen    uint64 // epoch generation at creation; stale generations are discarded
	data   any    // []T, wirePayload (codec-equipped wire types), or ackBody
	// qid is the query context the envelope belongs to (0 outside any query
	// epoch — see Rank.EpochCtx). The epoch guarantee means an envelope is
	// always delivered inside the epoch that created it, so the receiver
	// validates qid against the universe's current query: a mismatch is
	// cross-talk between multiplexed queries and is never delivered. Acks are
	// exempt (a redundant duplicate ack is the one legitimate straggler
	// across an epoch boundary).
	qid int64
	// lin carries one causal-lineage id per message of the batch, aligned
	// with data (nil when lineage is off). Read-only once shipped, so
	// duplicates and retransmits share the slice safely.
	lin []uint64
}

// Universe is a simulated distributed machine: a set of ranks connected by
// message queues. Register all message types before calling Run.
type Universe struct {
	cfg    config
	Stats  Stats
	ranks  []*Rank
	types  []*msgType
	frozen atomic.Bool

	// fp is the defaulted fault plan; nil selects the trusted transport.
	// jitter spreads retransmit timeouts by up to ±jitter (backoffTicks):
	// sockBackoffJitter on a socket transport, 0 in process.
	fp     *FaultPlan
	jitter float64

	// net is the configured transport backend; tickIntNs its retransmit-
	// clock pacing interval (0 = advance the tick on every poll).
	net       Transport
	tickIntNs int64

	// coresident is the answer to Rank.Coresident: trusted mode (so the
	// in-process transport), without lineage. Fixed at construction.
	coresident bool
	// park says idle rank mains block instead of polling (epoch.go,
	// progressUntilDone): the atomic detector and no watchdog, on a trusted
	// universe (nothing in progress depends on a clock) or on a transport
	// whose retransmit clock is wall-clock paced (clock then wakes the parked
	// mains). Fixed at construction.
	park bool
	// clock is the retransmit clock of a parking reliable universe (nil
	// otherwise): see retransmitClock.
	clock *retransmitClock
	// fourCounter: the four-counter detector ends epochs, so the ranks'
	// sentC/recvC are kept and pending is not. Fixed at construction.
	fourCounter bool
	// selfLocal says a rank's envelopes to itself skip the codec and the
	// reliable layer (MsgType.ship): reliable mode with a plan that injects
	// no link fault. Fixed at construction.
	selfLocal bool

	// pending (atomic detector only): a token per non-empty coalescing buffer
	// plus each shipped, unhandled message (SendTo, ship, Rank.handled).
	pending atomic.Int64

	// epochState is the shared epoch state machine (running / finished /
	// aborting — see recovery.go); epochGen numbers recovery generations
	// so envelopes created before a rollback are recognizably stale; and
	// epochSeq numbers committed epochs.
	epochState atomic.Int32
	epochGen   atomic.Uint64
	epochSeq   atomic.Int64

	// curQuery is the query context of the epoch currently running (0 for
	// plain untagged epochs). Every rank stores its nextQID here at epoch
	// entry — a collective EpochCtx call stores the same value from every
	// rank, and the opening barrier orders the stores before any send — so
	// sends stamp envelopes with it, deliveries validate against it, and trace
	// events attribute to it.
	curQuery atomic.Int64

	barrier *barrier
	coll    collectives
	tracer  *tracer
	// flight is the always-on black box (nil unless WithFlightRecorder): trace
	// and phase paths mirror landmark events into it even when the trace
	// rings are off. See flight.go.
	flight *obs.FlightRecorder

	// mp is the multi-process control-plane state (nil in single-process
	// mode — the overwhelmingly common case, so every mp hook is a single
	// nil check on the hot path).
	mp *mpState

	// lineage is the resolved WithLineage decision (on when tracing is, unless
	// LineageOff); when set, every send is stamped with its
	// causal parent and every handler invocation gets a lineage id.
	lineage bool

	// Rank-fault containment and checkpoint/restart state (recovery.go).
	// blobs[rank] is rank's row of checkpoint blobs (takeBlobs), retaken at
	// every epoch boundary under WithRecovery. faultMu guards
	// fault (the aborting epoch's deciding fault), faultLog, and runErr;
	// recoveries (rank-0-only) counts rollbacks of the current epoch.
	checkpointers []Checkpointer
	blobs         [][][]byte
	faultMu       sync.Mutex
	fault         *RankFault
	faultLog      []RankFault
	runErr        error
	runFailed     atomic.Bool
	recoveries    int
	// runExited flips once every rank main has returned: the algorithm is
	// complete and its results are final. Transport failures observed after
	// this point (peers tearing down data-plane sockets at slightly
	// different times in multi-process mode) must not fault a finished run,
	// and a coordinator wave poll is answered ok=false (sampleWave).
	runExited atomic.Bool

	// Injected-fault bookkeeping: one fired/healed flag per
	// FaultPlan.Crashes / DeadLinks entry; the has* fields gate the hot
	// paths.
	crashFired   []atomic.Bool
	linkHealed   []atomic.Bool
	hasCrashes   bool
	hasDeadLinks bool

	// Watchdog state: the monotonic timestamp of the last observed
	// substrate progress, and a once-flag for the fault.
	lastProgress  atomic.Int64
	watchdogFired atomic.Bool

	// Observability state (internal/obs). c backs Stats; typeC holds the
	// per-message-type counters (allocated in Run, once the type set is
	// frozen); relPending is the outstanding-retransmit gauge (reliable
	// mode); batchHist / latHist are per-type envelope-batch-size and
	// handler-latency histograms; ackRTT is the ack round-trip histogram.
	// latHist and ackRTT are nil unless WithTiming is set.
	c          *obs.Counters
	typeC      *obs.Counters
	relPending *obs.Gauge
	batchHist  []*obs.Histogram
	latHist    []*obs.Histogram
	ackRTT     *obs.Histogram
	// phases holds the per-rank per-phase duration histograms (see phase.go);
	// nil unless WithTiming is set, which keeps Rank.Phase free of clock
	// reads in untimed untraced runs.
	phases *obs.PhaseSet
}

// newUniverse builds the machine New's options describe.
func newUniverse(cfg config) *Universe {
	cfg = cfg.withDefaults()
	if mp := cfg.MP; mp != nil {
		switch {
		case mp.Plane == nil:
			panic("am: WithControlPlane needs a ControlPlane")
		case mp.Lo < 0 || mp.Hi > cfg.Ranks || mp.Lo >= mp.Hi:
			panic(fmt.Sprintf("am: WithControlPlane rank range [%d,%d) outside [0,%d)", mp.Lo, mp.Hi, cfg.Ranks))
		case cfg.Recovery:
			panic("am: WithRecovery is incompatible with WithControlPlane: multi-process faults abort the fleet and the launcher drives checkpoint/restart")
		case cfg.Transport.shared():
			panic("am: WithControlPlane needs a socket transport (WithTransport(SockTransport(...)))")
		}
		// The atomic detector counts process-local state; only the
		// four-counter protocol generalizes to samples merged over the wire.
		cfg.Detector = DetectorFourCounter
	}
	u := &Universe{cfg: cfg, net: cfg.Transport}
	if cfg.MP != nil {
		u.mp = newMPState(*cfg.MP)
	}
	u.tickIntNs = int64(u.net.tickInterval())
	plan := cfg.FaultPlan
	if !u.net.shared() {
		// A backend that can lose frames needs the full reliable-delivery
		// protocol even when the caller injects nothing (a lost frame on a
		// trusted transport would hang the epoch), and jittered backoff to
		// desynchronize the retransmit burst that follows a reconnect.
		if plan == nil {
			plan = &FaultPlan{}
		}
		u.jitter = sockBackoffJitter
	}
	if plan != nil {
		u.fp = plan.withDefaults()
		for i, c := range u.fp.Crashes {
			if c.Rank < 0 || c.Rank >= cfg.Ranks {
				panic(fmt.Sprintf("am: FaultPlan.Crashes[%d] targets rank %d outside [0,%d)", i, c.Rank, cfg.Ranks))
			}
		}
		for i, dl := range u.fp.DeadLinks {
			if dl.Src < 0 || dl.Src >= cfg.Ranks || dl.Dest < 0 || dl.Dest >= cfg.Ranks {
				panic(fmt.Sprintf("am: FaultPlan.DeadLinks[%d] outside [0,%d)", i, cfg.Ranks))
			}
		}
		u.crashFired = make([]atomic.Bool, len(u.fp.Crashes))
		u.linkHealed = make([]atomic.Bool, len(u.fp.DeadLinks))
		u.hasCrashes = len(u.fp.Crashes) > 0
		u.hasDeadLinks = len(u.fp.DeadLinks) > 0
	}
	u.barrier = newBarrier(cfg.Ranks)
	u.coll.init(cfg.Ranks)
	if per := cfg.perRankRing(); per > 0 {
		u.tracer = newTracer(per, cfg.Ranks)
	}
	u.flight = cfg.Flight
	u.lineage = cfg.Lineage == LineageAuto && u.tracer != nil
	u.coresident = u.trusted() && !u.lineage
	u.fourCounter = cfg.Detector == DetectorFourCounter
	u.park = cfg.Detector == DetectorAtomic && cfg.Watchdog <= 0 && (u.trusted() || u.tickIntNs > 0)
	if u.fp != nil {
		u.selfLocal = !u.fp.injectsLinkFaults()
		if u.park {
			u.clock = newRetransmitClock()
		}
	}
	u.c = obs.NewCounters(cfg.Ranks, counterNames[:]...)
	u.Stats = Stats{c: u.c}
	u.relPending = obs.NewGauge(cfg.Ranks)
	u.ranks = make([]*Rank, cfg.Ranks)
	for i := range u.ranks {
		u.ranks[i] = &Rank{rankState: &rankState{
			u:     u,
			id:    i,
			inbox: newQueue(),
			st:    u.c.Shard(i),
		}}
		u.ranks[i].crashAfter.Store(-1)
	}
	return u
}

// trusted reports whether nothing stands between ranks that a message must
// answer to: no fault plan — hence the in-process transport, since a socket
// transport always runs one, and so no control plane either — and no
// Recovery. Outside trusted mode rank faults are contained (converted into
// RankFaults) instead of failing fast. Valid once newUniverse has resolved the
// fault plan.
func (u *Universe) trusted() bool {
	return u.fp == nil && !u.cfg.Recovery
}

// Ranks returns the number of ranks.
func (u *Universe) Ranks() int { return u.cfg.Ranks }

// Rank is one simulated node. The SPMD body passed to Run receives its own
// Rank; all sends and property-map accesses happen through it.
//
// Internally a Rank value is a *facet*: all durable state lives in the
// embedded rankState (shared by every facet of the node), while the facet
// itself carries only goroutine-local context — the ambient lineage parent.
// Every goroutine that can deliver envelopes (handler workers, epoch-body
// participants, the rank main's progress loop) runs on its own facet, so a
// handler's sends can be stamped with the invocation that made them without
// any synchronization and without racing sibling threads of the same rank.
type Rank struct {
	*rankState

	// cur is the lineage id of the handler invocation currently executing
	// on this facet, or 0 when the facet is running epoch-body code (whose
	// sends are stamped with the synthetic per-(epoch, rank) root id).
	// Facet-local by construction; never touched when lineage is off.
	cur uint64
}

// facet derives a fresh goroutine-local view of the same rank. The canonical
// facets in Universe.ranks never have cur set, so code holding one (send
// paths reached outside any handler) stamps root lineage.
func (r *Rank) facet() *Rank { return &Rank{rankState: r.rankState} }

// rankState is the durable per-node state shared by all facets of one rank.
type rankState struct {
	u     *Universe
	id    int
	inbox *queue

	// linSeq numbers this rank's handler invocations for lineage ids
	// (first invocation gets 1, so no handler id collides with 0 = none).
	linSeq atomic.Uint64

	// st / tst are this rank's shards of the universe counters and the
	// per-message-type counters: every hot-path count lands on this rank's
	// padded cache lines (tst is assigned in Run, once types are frozen).
	st  obs.Shard
	tst obs.Shard

	// buffers indexed by message type id; element is *typedBufs[T].
	bufs []any

	// four-counter protocol counters. activeH covers the whole delivery
	// path (checks through handler completion): recovery's quiesce phase
	// spins on it to prove no in-flight delivery can still write state.
	sentC   atomic.Int64
	recvC   atomic.Int64
	activeH atomic.Int32

	// Crash-stop state (recovery.go): crashed marks the rank dead for the
	// current epoch attempt; crashAfter (>= 0 when armed) is the
	// handled-message count that triggers a mid-epoch injected crash, with
	// crashIdx the FaultPlan.Crashes entry it consumes; handledInEpoch
	// counts messages handled within the current epoch attempt.
	crashed        atomic.Bool
	crashAfter     atomic.Int64
	crashIdx       int
	handledInEpoch atomic.Int64

	// epoch-body bookkeeping (see epoch.go).
	idleBodies  atomic.Int32
	totalBodies atomic.Int32
	auxWork     atomic.Int64

	inEpoch atomic.Bool

	// attempt numbers this rank's epoch attempts (see EpochAttempt): advanced
	// by the rank main before each attempt's opening barrier, read by any of
	// the rank's threads.
	attempt atomic.Uint64

	// nextQID is the query context the rank's next epoch will run under
	// (EpochCtx sets it, EpochThreaded consumes it). Written and read only
	// by the goroutine entering the epoch, between epochs, so it needs no
	// synchronization.
	nextQID int64

	// epochBeginNs closes the rank's epoch span at TraceEpochEnd; written
	// and read only by the rank main goroutine.
	epochBeginNs int64

	// quietPasses counts the progress loop's passes that found nothing to
	// do (progressUntilDone): one per wakeup on a parking universe, one per
	// yield on a polling one. Written and read only by the rank main
	// goroutine.
	quietPasses int64

	// fc is rank 0's four-counter driver for the current epoch (nil on
	// other ranks and in atomic-detector mode).
	fc *fourCounterDriver

	// Reliable-transport state (allocated only when a FaultPlan is set):
	// send[dest][type] / recv[src][type] link state and the rank-local
	// progress tick driving retransmit timeouts. The count of
	// unacknowledged + delayed envelopes this rank is responsible for
	// lives in the universe's relPending gauge, sharded by rank.
	// relInit orders link-table swaps (initReliability, at Run and in
	// recovery's scrub) against requeueOutstanding, which a socket
	// backend's reconnector calls from a transport goroutine.
	relInit  sync.Mutex
	send     [][]sendLink
	recv     [][]recvLink
	linkTick atomic.Uint64
	// lastTick paces linkTick on real-latency transports (claimTick): the
	// retransmit clock's generation at the last advance on a parking
	// universe, the monotonic time of it otherwise; unused when the
	// transport's tick interval is 0.
	lastTick atomic.Int64
}

// ID returns this rank's id in [0, Ranks).
func (r *Rank) ID() int { return r.id }

// N returns the number of ranks in the universe.
func (r *Rank) N() int { return r.u.cfg.Ranks }

// Universe returns the universe this rank belongs to.
func (r *Rank) Universe() *Universe { return r.u }

// relAdd adjusts this rank's outstanding-retransmit gauge. On a parking
// universe a rise arms the retransmit clock, and a fall to 0 — the last ack
// (handleAck), or the release of the last delayed envelope (pollLinks) —
// checks for quiescence: see settle.
func (r *Rank) relAdd(d int64) {
	u := r.u
	switch v := u.relPending.Add(r.id, d); {
	case d > 0:
		u.clock.arm()
	case v == 0 && u.park:
		u.settle()
	}
}

// relPending reads this rank's outstanding-retransmit count.
func (r *Rank) relPendingNow() int64 { return r.u.relPending.ShardValue(r.id) }

// batchBounds / latencyBounds / rttBounds are the fixed histogram bucket
// boundaries: batch sizes 1..8192 messages, latencies 256ns..~134ms, ack
// round trips 256ns..~2.1s, each doubling per bucket.
var (
	batchBounds   = obs.ExpBounds(1, 14)
	latencyBounds = obs.ExpBounds(256, 20)
	rttBounds     = obs.ExpBounds(256, 24)
)

// initObs allocates the type-dimensioned metric state; called from Run once
// the type set is frozen.
func (u *Universe) initObs() {
	shards := u.cfg.Ranks
	names := make([]string, 0, 3*len(u.types))
	for _, mt := range u.types {
		names = append(names, mt.name+"/sent", mt.name+"/handled", mt.name+"/envelopes")
	}
	u.typeC = obs.NewCounters(shards, names...)
	u.batchHist = make([]*obs.Histogram, len(u.types))
	for i := range u.batchHist {
		u.batchHist[i] = obs.NewHistogram(shards, batchBounds...)
	}
	if u.cfg.Timing {
		u.latHist = make([]*obs.Histogram, len(u.types))
		for i := range u.latHist {
			u.latHist[i] = obs.NewHistogram(shards, latencyBounds...)
		}
		if u.fp != nil {
			u.ackRTT = obs.NewHistogram(shards, rttBounds...)
		}
		u.phases = obs.NewPhaseSet(shards)
	}
	for _, r := range u.ranks {
		r.tst = u.typeC.Shard(r.id)
	}
}

// Run executes body SPMD-style, once per rank, each on its own goroutine,
// with ThreadsPerRank handler threads per rank delivering messages
// concurrently. It returns when every rank's body has returned and all
// handler threads have drained. Run may be called only once per Universe.
//
// The returned error is nil on a clean run. It is non-nil when a rank fault
// (injected crash, contained handler panic, dead link — see recovery.go)
// could not be recovered: recovery disabled, the per-epoch recovery budget
// exhausted, or the stuck-epoch watchdog fired. The wrapped *RankFault
// carries the fault kind, rank, and epoch; every rank's body is unwound
// before Run returns, so the process survives what used to be a panic.
func (u *Universe) Run(body func(r *Rank)) error {
	if !u.frozen.CompareAndSwap(false, true) {
		panic("am: Universe.Run called twice")
	}
	u.initObs()
	u.blobs = make([][][]byte, u.cfg.Ranks)
	// Allocate per-rank typed coalescing buffers now that the type set is
	// final.
	for _, r := range u.ranks {
		r.bufs = make([]any, len(u.types))
		for _, mt := range u.types {
			r.bufs[mt.id] = mt.newBufs(u.cfg.Ranks)
		}
		if u.fp != nil {
			r.initReliability(len(u.types))
		}
	}
	// Bind the transport backend now that the type set is frozen and the
	// reliable-layer state exists: a socket backend validates that every
	// registered type is wire-equipped, binds its listeners, and dials its
	// links before any goroutine that can send exists.
	if err := u.net.start(u); err != nil {
		return fmt.Errorf("am: transport %s: %w", u.net.Name(), err)
	}
	if u.clock != nil {
		go u.clock.run(u)
	}

	var workers sync.WaitGroup
	for _, r := range u.ranks {
		if !u.isLocal(r.id) {
			continue
		}
		for t := 0; t < u.cfg.ThreadsPerRank; t++ {
			workers.Add(1)
			go func(r *Rank) {
				defer workers.Done()
				r = r.facet() // this worker's own lineage context
				for {
					e, ok := r.inbox.Pop()
					if !ok {
						return
					}
					r.deliverEnvelope(e)
					if u.park && r.inbox.Len() == 0 {
						// Flush before blocking: the rank main may be parked,
						// and a message left in a coalescing buffer while
						// every thread of its rank sleeps would never ship.
						// Only after a delivery: before it the thread has sent
						// nothing, and a flush would cut short the buffers the
						// body is still filling. The flush polls the links and
						// can settle (relAdd), so it counts as delivery work
						// the rank main waits out before it leaves the epoch.
						r.activeH.Add(1)
						r.flushAll()
						r.activeH.Add(-1)
					}
				}
			}(r)
		}
	}

	var mains sync.WaitGroup
	for _, r := range u.ranks {
		if !u.isLocal(r.id) {
			continue
		}
		mains.Add(1)
		go func(r *Rank) {
			defer mains.Done()
			defer func() {
				// runAbort unwinds a rank main whose run has failed
				// (recovery.go); every rank throws it from the same
				// recovery barrier, so no rank is left waiting in a
				// collective. Any other panic propagates.
				if p := recover(); p != nil {
					if _, ok := p.(runAbort); !ok {
						panic(p)
					}
				}
			}()
			body(r)
		}(r)
	}
	mains.Wait()
	u.runExited.Store(true)

	// Shutdown audit (no send-on-closed-channel window). Once the rank mains
	// have returned nothing can send or retransmit: the reliable-delivery
	// layer's retransmits and delayed-envelope releases are poll-driven from
	// flushAll (bodies, progress loops and, on a parking universe, handler
	// threads after a delivery), and both detectors require
	// totalRelPending() == 0 before ending an epoch, so no retransmit can fire
	// after the last epoch ends. The retransmit clock of a parking reliable
	// universe only wakes mains and sends nothing; it stops here, before the
	// transport closes. The only post-epoch traffic is a redundant duplicate
	// ack, and inbox.Push on a closed queue is a safe no-op sink (queues are
	// not Go channels). A socket backend adds goroutines of its own (readers,
	// heartbeats, reconnectors); closing it here — before the inboxes close —
	// joins them all, and its post-close sends are safe no-ops. Wave samples
	// read counters and send nothing, so a coordinator poll that outlives the
	// mains is answered from runExited. TestShutdownStress exercises this
	// window under -race.
	u.clock.halt()
	if err := u.net.close(); err != nil {
		u.failRun(fmt.Errorf("am: transport %s close: %w", u.net.Name(), err))
	}
	for _, r := range u.ranks {
		r.inbox.Close()
	}
	workers.Wait()
	return u.runError()
}

// deliverEnvelope runs the handlers for every message in e on rank r. It
// first verifies the wire checksum (codec-equipped types, unless the
// transport already verified the bytes inside a frame) and decodes; a
// sequenced envelope (reliable mode, any link but a rank's unsequenced link
// to itself) is then deduplicated and acknowledged. Corrupted or
// undecodable envelopes are discarded unacknowledged so the sender's
// retransmit recovers them. Every exit path releases the envelope's pooled
// wire buffer exactly once, and decoded batches the receiver exclusively
// owns return to the type's batch pool after delivery.
//
// activeH brackets the whole function (not just the handler batch): the
// recovery quiesce phase observes activeH == 0 to prove no delivery that
// passed the admission checks can still be running, and the checks
// themselves run after the increment so a delivery is either visibly
// in-flight or sees the abort/stale-generation state and discards itself.
func (r *Rank) deliverEnvelope(e envelope) {
	u := r.u
	r.activeH.Add(1)
	defer r.activeH.Add(-1)
	if !u.trusted() {
		// A crashed rank is silent (no handling, no acks — peers see only
		// missing acknowledgements); an aborting epoch discards everything
		// (recovery scrubs the links); and an envelope from a rolled-back
		// generation is stale even if a descheduled worker surfaces it
		// after the epoch replays.
		if r.crashed.Load() || u.epochState.Load() == epochAborting || e.gen != u.epochGen.Load() {
			if wp, ok := e.data.(wirePayload); ok {
				wp.release()
			}
			return
		}
	}
	if e.typeID == ackTypeID {
		r.handleAck(e)
		return
	}
	if e.qid != u.curQuery.Load() {
		// Query cross-talk: the envelope was stamped for a different query
		// context than the epoch now running. The epoch guarantee makes this
		// impossible on a correct substrate (every user envelope is handled
		// inside the epoch that created it), so on the trusted transport it
		// is a routing bug and fails fast. In reliable mode it is discarded
		// unacknowledged and counted — the same containment as corruption —
		// so a misrouted envelope can never relax another query's state.
		if wp, ok := e.data.(wirePayload); ok {
			wp.release()
		}
		r.st.Inc(cQueryMismatches)
		u.trace(r.id, TraceQueryCross, int64(e.typeID), e.qid)
		if u.fp == nil {
			panic(fmt.Sprintf("am: query cross-talk on trusted transport: envelope for query %d delivered under query %d (%s)",
				e.qid, u.curQuery.Load(), u.types[e.typeID].name))
		}
		return
	}
	if u.hasCrashes && r.crashDue() {
		// The rank died before handling this envelope; it dies unacknowledged.
		if wp, ok := e.data.(wirePayload); ok {
			wp.release()
		}
		return
	}
	mt := u.types[e.typeID]
	data := e.data
	fromWire := false
	if wp, ok := data.(wirePayload); ok {
		if !wp.verified && frame.Checksum(wp.b) != wp.sum {
			wp.release()
			if u.fp == nil {
				panic("am: wire corruption on trusted transport: " + mt.name)
			}
			r.st.Inc(cCorruptionsDetected)
			u.trace(r.id, TraceCorrupt, int64(e.typeID), int64(e.seq))
			return
		}
		decoded, err := mt.decode(wp.b)
		wp.release()
		if err != nil {
			// Malformed bytes that slipped past the checksum. On the
			// trusted transport nothing mutates the wire, so this is a
			// codec bug and fails fast; in reliable mode it is treated
			// exactly like detected corruption — discarded unacknowledged,
			// so the sender's retransmit (a fresh encode) recovers.
			if u.fp == nil {
				panic("am: wire decode on trusted transport: " + mt.name + ": " + err.Error())
			}
			r.st.Inc(cDecodeErrors)
			u.trace(r.id, TraceDecodeError, int64(e.typeID), int64(e.seq))
			return
		}
		data = decoded
		fromWire = true
	}
	if e.seq != 0 {
		// A sequenced envelope (reliable mode): deduplicate and acknowledge.
		// Sequence number 0 marks one that never left its rank — every
		// envelope of the trusted transport, and a reliable universe's mail
		// to itself (ship) — which is neither.
		fresh, salt := r.admit(int(e.src), e.typeID, e.seq)
		r.sendAck(int(e.src), e.typeID, e.seq, salt)
		if !fresh {
			r.st.Inc(cDupsSuppressed)
			u.trace(r.id, TraceSuppress, int64(e.typeID), int64(e.seq))
			if fromWire {
				mt.recycle(data)
			}
			return
		}
	}
	// Time the delivery span only when someone consumes it (trace or
	// latency histograms); the untimed path performs no clock reads.
	var start int64
	timed := u.tracer != nil || u.latHist != nil
	if timed {
		start = obs.Now()
	}
	if !r.deliverBatch(mt, data, e.lin) {
		return // handler panicked; contained as a rank fault
	}
	if u.hasCrashes {
		r.handledInEpoch.Add(int64(mt.batchLen(data)))
	}
	if timed {
		end := obs.Now()
		n := int64(mt.batchLen(data))
		u.traceSpan(r.id, TraceDeliver, int64(e.typeID), n, end, end-start)
		if u.latHist != nil {
			u.latHist[e.typeID].Observe(r.id, end-start)
		}
	}
	// The receiver exclusively owns wire-decoded batches, and unsequenced
	// reference-shipped batches too (the sender relinquished the buffer at
	// push). Sequenced reference batches stay with the retransmit table and
	// are never pooled.
	if fromWire || e.seq == 0 {
		mt.recycle(data)
	}
	u.touchProgress()
}

// deliverBatch runs the handler batch, containing panics when the universe
// is resilient: a panicking handler becomes a crash of the handling rank (a
// contained rank fault) instead of a process abort. Reports whether the
// batch completed. On the plain trusted transport handler panics propagate
// unchanged (fail-fast).
func (r *Rank) deliverBatch(mt *msgType, data any, lin []uint64) (ok bool) {
	if r.u.trusted() {
		mt.deliver(r, data, lin)
		return true
	}
	defer func() {
		if p := recover(); p != nil {
			ok = false
			r.cur = 0 // the poisoned ambient parent dies with the attempt
			r.st.Inc(cHandlerPanics)
			r.u.trace(r.id, TracePanic, int64(mt.id), 0)
			r.crashNow(FaultHandlerPanic,
				fmt.Sprintf("handler for %s panicked: %v\n%s", mt.name, p, debug.Stack()))
		}
	}()
	mt.deliver(r, data, lin)
	return true
}

// drainSome delivers up to max envelopes from r's inbox without blocking and
// reports whether it delivered anything.
func (r *Rank) drainSome(max int) bool {
	worked := false
	for i := 0; i < max; i++ {
		e, ok := r.inbox.TryPop()
		if !ok {
			break
		}
		r.deliverEnvelope(e)
		worked = true
	}
	return worked
}

// flushAll ships every non-empty coalescing buffer owned by r, then (in
// reliable mode) polls this rank's links — releasing matured delayed
// envelopes and retransmitting overdue unacknowledged ones. Reports whether
// anything moved. A crashed rank moves nothing: crash-stop silence includes
// buffered sends and retransmits.
func (r *Rank) flushAll() bool {
	if r.crashed.Load() {
		return false
	}
	worked := false
	for _, mt := range r.u.types {
		if mt.flushRank(r) {
			worked = true
		}
	}
	if r.pollLinks() {
		worked = true
	}
	return worked
}
