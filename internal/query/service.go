// Package query is the resident query plane over a long-lived universe: one
// Service owns a universe, a graph, and pre-bound algorithm slots, and serves
// many concurrent, independently-deadlined queries against them. Queries are
// admitted into a bounded queue, batched (same-algorithm frontiers fuse into
// one epoch sweep), scheduled round-robin (one step per active job per
// scheduling round), and answered from retained per-query property vectors.
//
// The plane leans on three substrate guarantees:
//
//   - Epochs are globally serialized and tagged: every scheduling step runs
//     under am.Rank.EpochCtx with the query (or batch representative) id, so
//     envelopes, detector waves, and trace events of interleaved queries are
//     routed and attributed by query context instead of silently merged.
//   - Collectives are shared-memory, so the leader (rank 0) can mutate the
//     shared schedule between barriers: it decides a plan while the other
//     ranks wait at the publication barrier, and the barrier's happens-before
//     publishes the plan to every rank.
//   - Min-relaxation fixed points (BFS, SSSP) are confluent and PageRank is
//     deterministic integer fixed-point, so a query's result is bit-identical
//     to its one-shot run no matter how many sibling frontiers share the
//     sweep or how rounds interleave.
package query

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// Algo identifies a served algorithm.
type Algo int

const (
	// BFS answers hop counts from a source vertex.
	BFS Algo = iota
	// SSSP answers weighted shortest-path distances from a source vertex.
	SSSP
	// PageRank answers fixed-point ranks (PRScale scale); it has no source,
	// so concurrent PageRank queries dedupe onto one shared stepwise job.
	PageRank

	numAlgos
)

// String returns the lowercase wire name of the algorithm.
func (a Algo) String() string {
	switch a {
	case BFS:
		return "bfs"
	case SSSP:
		return "sssp"
	case PageRank:
		return "pagerank"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// ParseAlgo parses a wire name produced by Algo.String.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "bfs":
		return BFS, nil
	case "sssp":
		return SSSP, nil
	case "pagerank":
		return PageRank, nil
	}
	return 0, fmt.Errorf("query: unknown algorithm %q", s)
}

// Service errors. Submit-time rejections (ErrQueueFull, ErrBadSource,
// ErrStopped) come back from Submit; the rest surface as a failed ticket's
// error.
var (
	// ErrQueueFull rejects a submission when the admission queue is at
	// capacity.
	ErrQueueFull = errors.New("query: queue full")
	// ErrBadSource rejects a source vertex outside the graph.
	ErrBadSource = errors.New("query: source vertex out of range")
	// ErrStopped fails submissions and outstanding queries of a stopped
	// service.
	ErrStopped = errors.New("query: service stopped")
	// ErrCanceled fails a query canceled via its ticket.
	ErrCanceled = errors.New("query: canceled")
	// ErrDeadline fails a query whose deadline passed before completion.
	ErrDeadline = errors.New("query: deadline exceeded")
	// ErrUnknown reports an id that was never issued or whose retained
	// result has been evicted.
	ErrUnknown = errors.New("query: unknown query id")
	// ErrNotDone reports a value lookup against a query that has not
	// completed.
	ErrNotDone = errors.New("query: not done")
)

// Request describes one query.
type Request struct {
	Algo Algo
	// Source is the query's source vertex (BFS and SSSP; ignored for
	// PageRank).
	Source distgraph.Vertex
	// Deadline bounds the query's total latency (admission wait included);
	// 0 uses the service default, negative is already expired. Deadlines
	// are enforced at step boundaries — an epoch in flight always finishes.
	Deadline time.Duration
}

// Result is a completed query's answer.
type Result struct {
	ID     int64
	Algo   Algo
	Source distgraph.Vertex
	// Values is the computed per-vertex property vector, indexed by global
	// vertex id: BFS levels, SSSP distances, or PageRank fixed-point ranks.
	Values []int64
	// Rounds is the PageRank round count (0 for BFS/SSSP).
	Rounds int
	// BatchSize is the number of queries fused into the sweep (or sharing
	// the PageRank job) that produced this result.
	BatchSize int
	// Queued, Started, Finished are the query's lifecycle timestamps.
	Queued, Started, Finished time.Time
}

// Query lifecycle states (Status.State).
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Status is a point-in-time snapshot of one query.
type Status struct {
	ID      int64
	Algo    Algo
	Source  distgraph.Vertex
	State   string
	Err     error // non-nil iff State == StateFailed
	Rounds  int
	Batch   int
	Queued  time.Time
	Started time.Time // zero until scheduled
	Done    time.Time // zero until finished
}

// job is one admitted query. Lifecycle fields are guarded by Service.mu; the
// done channel is closed (under mu) exactly once, after res/err are final.
type job struct {
	id       int64
	req      Request
	deadline time.Time // zero = none
	queued   time.Time
	started  time.Time
	state    string
	canceled bool
	res      *Result
	err      error
	done     chan struct{}
}

// Ticket is the submitter's handle on an admitted query.
type Ticket struct {
	s *Service
	j *job
}

// ID returns the query id (also the query-context id its epochs are tagged
// with when it leads a batch).
func (t *Ticket) ID() int64 { return t.j.id }

// Done returns a channel closed when the query completes or fails.
func (t *Ticket) Done() <-chan struct{} { return t.j.done }

// Wait blocks until the query completes or fails.
func (t *Ticket) Wait() (*Result, error) {
	<-t.j.done
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.j.res, t.j.err
}

// Cancel requests cancellation. Queued queries are dropped at the next
// scheduling boundary; a running PageRank membership is detached between
// rounds. An epoch in flight always finishes — cancellation is
// step-boundary-granular, never mid-epoch.
func (t *Ticket) Cancel() {
	t.s.mu.Lock()
	t.j.canceled = true
	t.s.mu.Unlock()
	t.s.cond.Broadcast()
}

// Option configures a Service at construction.
type Option func(*Service)

// WithMaxFusion bounds how many same-algorithm queries fuse into one epoch
// sweep (default 8). Each fusion slot pre-binds its own property map, so this
// also sets the BFS/SSSP slot-pool sizes.
func WithMaxFusion(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.maxFusion = n
		}
	}
}

// WithQueueDepth bounds the admission queue (default 256); submissions beyond
// it are rejected with ErrQueueFull.
func WithQueueDepth(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.queueDepth = n
		}
	}
}

// WithDefaultDeadline sets the deadline applied to requests that do not carry
// their own (default: none).
func WithDefaultDeadline(d time.Duration) Option {
	return func(s *Service) { s.defaultDeadline = d }
}

// WithRetain bounds how many completed results the service keeps for point
// lookups (default 256, FIFO eviction by completion order).
func WithRetain(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.retain = n
		}
	}
}

// WithPageRank tunes the shared PageRank job (rounds cap and fixed-point
// tolerance); zero values keep the algorithm defaults.
func WithPageRank(maxIters int, tolerance int64) Option {
	return func(s *Service) {
		s.prIters = maxIters
		s.prTol = tolerance
	}
}

// batch is one fused same-algorithm sweep: up to maxFusion queries, each
// assigned its own pre-bound slot, all seeded and relaxed inside one tagged
// epoch.
type batch struct {
	jobs []*job
	qid  int64 // representative query context: the first member's id
}

// prStep is one scheduling turn of the shared PageRank job. last marks the
// job's final permitted iteration (decided under mu in lead). converged is
// written by rank 0 during the step and read by rank 0 in finishRound (same
// goroutine).
type prStep struct {
	qid       int64
	begin     bool
	last      bool
	converged bool
}

// roundPlan is one scheduling round, decided by rank 0 under mu and published
// to every rank by the plan barrier. Round-robin fairness is structural: at
// most one step per active job class per round, so a long PageRank run
// interleaves its rounds with whole BFS/SSSP sweeps.
type roundPlan struct {
	stop bool
	bfs  *batch
	sssp *batch
	pr   *prStep
}

// prState is the shared PageRank job: every PageRank query admitted while it
// runs attaches as a member and all members receive the converged result.
type prState struct {
	members []*job
	begun   bool
	rounds  int
}

// Service is the resident query plane. Construct with New before
// Universe.Run (slot binding registers message types), then drive the
// universe with Serve and submit from any goroutine.
type Service struct {
	eng *pattern.Engine
	u   *am.Universe
	g   *distgraph.Graph

	maxFusion       int
	queueDepth      int
	defaultDeadline time.Duration
	retain          int
	prIters         int
	prTol           int64

	bfsSlots  []*algorithms.BFS
	ssspSlots []*algorithms.SSSP
	pr        *algorithms.PageRank
	// gather copies a finished slot's property vector; finishRound calls it
	// before taking mu. A field so a test can watch where it runs.
	gather func(*pmap.VertexWord) []int64

	met metrics

	mu       sync.Mutex
	cond     *sync.Cond
	nextID   int64
	queue    []*job
	byID     map[int64]*job
	retained []int64 // completed ids in completion order, for eviction
	prJob    *prState
	stopping bool
	serving  bool

	// plan is written by rank 0 in lead() and read by every rank after the
	// plan barrier; the barrier orders the write before the reads and the
	// round-end barrier orders the reads before the next write.
	plan roundPlan
}

// New builds a resident query service over eng's universe and graph,
// pre-binding MaxFusion BFS slots, MaxFusion SSSP slots, and one shared
// PageRank job. Must be called before Universe.Run.
func New(eng *pattern.Engine, opts ...Option) *Service {
	s := &Service{
		eng:        eng,
		u:          eng.Universe(),
		g:          eng.Graph(),
		maxFusion:  8,
		queueDepth: 256,
		retain:     256,
		byID:       map[int64]*job{},
		gather:     (*pmap.VertexWord).Gather,
	}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < s.maxFusion; i++ {
		s.bfsSlots = append(s.bfsSlots, algorithms.NewBFS(eng))
		s.ssspSlots = append(s.ssspSlots, algorithms.NewSSSP(eng))
	}
	s.pr = algorithms.NewPageRank(eng, algorithms.PageRankPush)
	if s.prIters > 0 {
		s.pr.MaxIters = s.prIters
	}
	if s.prTol > 0 {
		s.pr.Tolerance = s.prTol
	}
	s.met.init()
	return s
}

// Universe returns the service's universe (for metrics and trace export).
func (s *Service) Universe() *am.Universe { return s.u }

// Submit admits one query, returning its ticket immediately. Safe from any
// goroutine, before or during Serve. Rejections (full queue, bad source,
// stopped service) return a nil ticket and the sentinel error.
func (s *Service) Submit(req Request) (*Ticket, error) {
	if req.Algo < 0 || req.Algo >= numAlgos {
		s.met.rejected.Add(1)
		return nil, fmt.Errorf("query: unknown algorithm %d", int(req.Algo))
	}
	if req.Algo != PageRank && int(req.Source) >= s.g.NumVertices() {
		s.met.rejected.Add(1)
		return nil, ErrBadSource
	}
	now := time.Now()
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrStopped
	}
	if len(s.queue) >= s.queueDepth {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.nextID++
	j := &job{
		id:     s.nextID,
		req:    req,
		queued: now,
		state:  StateQueued,
		done:   make(chan struct{}),
	}
	d := req.Deadline
	if d == 0 {
		d = s.defaultDeadline
	}
	if d != 0 {
		j.deadline = now.Add(d)
	}
	s.queue = append(s.queue, j)
	s.byID[j.id] = j
	s.mu.Unlock()
	s.met.admitted.Add(1)
	s.cond.Broadcast()
	return &Ticket{s: s, j: j}, nil
}

// Ticket returns the handle for a known (not yet evicted) query id.
func (s *Service) Ticket(id int64) (*Ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return &Ticket{s: s, j: j}, true
}

// Status snapshots one query's lifecycle.
func (s *Service) Status(id int64) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return Status{}, ErrUnknown
	}
	st := Status{
		ID:      j.id,
		Algo:    j.req.Algo,
		Source:  j.req.Source,
		State:   j.state,
		Err:     j.err,
		Queued:  j.queued,
		Started: j.started,
	}
	if j.res != nil {
		st.Rounds = j.res.Rounds
		st.Batch = j.res.BatchSize
		st.Done = j.res.Finished
	}
	return st, nil
}

// Value answers a point lookup into a completed query's retained property
// vector: the level/distance/rank computed for vertex v.
func (s *Service) Value(id int64, v distgraph.Vertex) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return 0, ErrUnknown
	}
	if j.state == StateFailed {
		return 0, j.err
	}
	if j.res == nil {
		return 0, ErrNotDone
	}
	if int(v) >= len(j.res.Values) {
		return 0, ErrBadSource
	}
	return j.res.Values[v], nil
}

// Depth reports the current admission-queue depth.
func (s *Service) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Serve runs the universe with the scheduling loop as its SPMD body,
// blocking until Stop (or a substrate fault). Outstanding queries of a
// stopped or failed service fail with ErrStopped (or the run error).
func (s *Service) Serve() error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("query: Serve called twice")
	}
	s.serving = true
	s.mu.Unlock()
	err := s.u.Run(s.body)
	s.shutdown(err)
	return err
}

// Stop asks the scheduling loop to exit after the current round. Idempotent;
// queued and running queries fail with ErrStopped.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// shutdown fails every outstanding query once the universe has exited.
func (s *Service) shutdown(runErr error) {
	cause := ErrStopped
	if runErr != nil {
		cause = fmt.Errorf("%w: %v", ErrStopped, runErr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopping = true
	// Sweep byID, not just the queue: a fault can exit the run with jobs
	// mid-flight in a batch, and their tickets must still resolve.
	for _, j := range s.byID {
		s.failLocked(j, cause)
	}
	s.queue = nil
	s.prJob = nil
}

// body is the per-rank scheduling loop: rank 0 decides a round plan while the
// others wait at the plan barrier, every rank executes the round's steps, and
// rank 0 completes finished jobs after the round-end barrier.
func (s *Service) body(r *am.Rank) {
	for {
		if r.ID() == 0 {
			s.plan = s.lead()
		}
		r.Barrier() // publish plan
		p := s.plan
		if p.stop {
			return
		}
		if p.bfs != nil {
			s.runBFSBatch(r, p.bfs)
		}
		if p.sssp != nil {
			s.runSSSPBatch(r, p.sssp)
		}
		if p.pr != nil {
			s.runPRStep(r, p.pr)
		}
		r.Barrier() // round end: all property-map writes visible to rank 0
		if r.ID() == 0 {
			s.finishRound(p)
		}
	}
}

// lead blocks until there is work (or the service stops) and decides one
// scheduling round. Runs on rank 0 only, under mu.
func (s *Service) lead() roundPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.reapLocked(time.Now())
		if s.stopping {
			return roundPlan{stop: true}
		}
		var p roundPlan
		p.bfs = s.takeBatchLocked(BFS)
		p.sssp = s.takeBatchLocked(SSSP)
		s.attachPRLocked()
		if s.prJob != nil {
			p.pr = &prStep{qid: s.prJob.members[0].id, begin: !s.prJob.begun,
				last: s.prJob.rounds+1 >= s.pr.MaxIters}
			s.prJob.begun = true
		}
		if p.bfs != nil || p.sssp != nil || p.pr != nil {
			return p
		}
		s.cond.Wait()
	}
}

// reapLocked enforces deadlines and cancellations at the step boundary:
// expired or canceled queued jobs fail in place, and dead PageRank members
// detach (the job itself stops only when no member remains).
func (s *Service) reapLocked(now time.Time) {
	live := s.queue[:0]
	for _, j := range s.queue {
		switch {
		case j.canceled:
			s.failLocked(j, ErrCanceled)
		case !j.deadline.IsZero() && now.After(j.deadline):
			s.failLocked(j, ErrDeadline)
		default:
			live = append(live, j)
		}
	}
	s.queue = live
	if s.prJob != nil {
		members := s.prJob.members[:0]
		for _, j := range s.prJob.members {
			switch {
			case j.canceled:
				s.failLocked(j, ErrCanceled)
			case !j.deadline.IsZero() && now.After(j.deadline):
				s.failLocked(j, ErrDeadline)
			default:
				members = append(members, j)
			}
		}
		s.prJob.members = members
		if len(members) == 0 {
			s.prJob = nil
		}
	}
}

// takeBatchLocked removes up to maxFusion queued jobs of the given algorithm
// (FIFO order) and forms the round's fused batch.
func (s *Service) takeBatchLocked(a Algo) *batch {
	var b *batch
	rest := s.queue[:0]
	for _, j := range s.queue {
		if j.req.Algo != a || (b != nil && len(b.jobs) >= s.maxFusion) {
			rest = append(rest, j)
			continue
		}
		if b == nil {
			b = &batch{qid: j.id}
		}
		j.state = StateRunning
		j.started = time.Now()
		b.jobs = append(b.jobs, j)
	}
	s.queue = rest
	return b
}

// attachPRLocked moves every queued PageRank job onto the shared stepwise
// job, creating it if needed. All members receive the same converged result,
// so attachment order is irrelevant.
func (s *Service) attachPRLocked() {
	rest := s.queue[:0]
	for _, j := range s.queue {
		if j.req.Algo != PageRank {
			rest = append(rest, j)
			continue
		}
		if s.prJob == nil {
			s.prJob = &prState{}
		}
		j.state = StateRunning
		j.started = time.Now()
		s.prJob.members = append(s.prJob.members, j)
	}
	s.queue = rest
}

// runBFSBatch executes one fused BFS sweep: every member's slot is reset and
// seeded locally, then all frontiers relax inside a single tagged epoch. The
// slots' property maps are disjoint, so members never interfere; the fixed
// point each slot reaches is the one its one-shot run would reach.
func (s *Service) runBFSBatch(r *am.Rank, b *batch) {
	ph := r.Phase(obs.PhaseCollect)
	seeds := make([][]distgraph.Vertex, len(b.jobs))
	for i, j := range b.jobs {
		s.bfsSlots[i].ResetLocal(r)
		seeds[i] = s.bfsSlots[i].SeedLocal(r, nil, j.req.Source)
	}
	ph.End()
	r.Barrier()
	r.EpochCtx(b.qid, func(*am.Epoch) {
		for i := range b.jobs {
			s.bfsSlots[i].InvokeSeeds(r, seeds[i])
		}
	})
}

// runSSSPBatch is runBFSBatch over the SSSP slot pool.
func (s *Service) runSSSPBatch(r *am.Rank, b *batch) {
	ph := r.Phase(obs.PhaseCollect)
	seeds := make([][]distgraph.Vertex, len(b.jobs))
	for i, j := range b.jobs {
		s.ssspSlots[i].ResetLocal(r)
		seeds[i] = s.ssspSlots[i].SeedLocal(r, nil, j.req.Source)
	}
	ph.End()
	r.Barrier()
	r.EpochCtx(b.qid, func(*am.Epoch) {
		for i := range b.jobs {
			s.ssspSlots[i].InvokeSeeds(r, seeds[i])
		}
	})
}

// runPRStep executes one PageRank round (with the one-time Begin on the
// job's first turn) under the job's query context.
func (s *Service) runPRStep(r *am.Rank, st *prStep) {
	if st.begin {
		s.pr.Begin(r)
		r.Barrier()
	}
	done := s.pr.Round(r, st.qid)
	if r.ID() == 0 {
		st.converged = done
	}
}

// finishRound completes the round's finished jobs on rank 0. The members'
// property vectors are gathered first, outside mu — the round-end barrier
// ordered every rank's writes before this and nothing writes the slots until
// rank 0 plans the next round, while a gather copies |V| words per member and
// would stall every Submit, Status and Value behind a wide round's worth of
// them. Then, under mu, results are stamped and tickets closed.
func (s *Service) finishRound(p roundPlan) {
	var bfsVals, ssspVals [][]int64
	var prVals []int64
	if p.bfs != nil {
		for i := range p.bfs.jobs {
			bfsVals = append(bfsVals, s.gather(s.bfsSlots[i].Level))
		}
	}
	if p.sssp != nil {
		for i := range p.sssp.jobs {
			ssspVals = append(ssspVals, s.gather(s.ssspSlots[i].Dist))
		}
	}
	prDone := p.pr != nil && (p.pr.converged || p.pr.last)
	if prDone {
		prVals = s.gather(s.pr.Rank)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if p.bfs != nil {
		s.met.observeBatch(len(p.bfs.jobs))
		for i, j := range p.bfs.jobs {
			s.completeLocked(j, bfsVals[i], 0, len(p.bfs.jobs), now)
		}
	}
	if p.sssp != nil {
		s.met.observeBatch(len(p.sssp.jobs))
		for i, j := range p.sssp.jobs {
			s.completeLocked(j, ssspVals[i], 0, len(p.sssp.jobs), now)
		}
	}
	if p.pr != nil && s.prJob != nil {
		s.prJob.rounds++
		if prDone {
			members := s.prJob.members
			s.met.observeBatch(len(members))
			for _, j := range members {
				s.completeLocked(j, prVals, s.prJob.rounds, len(members), now)
			}
			s.prJob = nil
		}
	}
}

// completeLocked finalizes one successful job and retains its result for
// point lookups, evicting the oldest retained result beyond the cap.
func (s *Service) completeLocked(j *job, vals []int64, rounds, batchSize int, now time.Time) {
	j.res = &Result{
		ID:        j.id,
		Algo:      j.req.Algo,
		Source:    j.req.Source,
		Values:    vals,
		Rounds:    rounds,
		BatchSize: batchSize,
		Queued:    j.queued,
		Started:   j.started,
		Finished:  now,
	}
	j.state = StateDone
	close(j.done)
	s.met.completed.Add(1)
	s.met.latency[j.req.Algo].Observe(0, now.Sub(j.queued).Nanoseconds())
	s.retainLocked(j)
}

// failLocked finalizes one failed job. Failed jobs stay in the retained ring
// so Status keeps answering for them until eviction.
func (s *Service) failLocked(j *job, cause error) {
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.err = cause
	j.state = StateFailed
	close(j.done)
	s.met.failed.Add(1)
	switch {
	case errors.Is(cause, ErrCanceled):
		s.met.canceled.Add(1)
	case errors.Is(cause, ErrDeadline):
		s.met.expired.Add(1)
	}
	s.retainLocked(j)
}

// retainLocked enters a finalized job into the bounded retention ring,
// evicting the oldest entry beyond the cap.
func (s *Service) retainLocked(j *job) {
	s.retained = append(s.retained, j.id)
	for len(s.retained) > s.retain {
		delete(s.byID, s.retained[0])
		s.retained = s.retained[1:]
	}
}
