// Package query is the resident query plane over a long-lived universe: one
// Service owns a universe, a graph, and pre-bound algorithm slots, and serves
// many concurrent, independently-deadlined queries against them. Queries are
// admitted into a bounded queue, scheduled one step at a time (one BFS or
// SSSP query, or one round of the shared PageRank job, rotating over the
// classes that have work), and answered from retained per-query property
// vectors.
//
// The plane leans on three substrate guarantees:
//
//   - Epochs are globally serialized and tagged: every scheduling step runs
//     under am.Rank.EpochCtx with the query (or PageRank job) id, so
//     envelopes, detector waves, and trace events of interleaved queries are
//     routed and attributed by query context instead of silently merged.
//   - Collectives are shared-memory, so the leader (rank 0) can mutate the
//     shared schedule between barriers: it decides a plan while the other
//     ranks wait at the publication barrier, and the barrier's happens-before
//     publishes the plan to every rank.
//   - Min-relaxation fixed points (BFS, SSSP) are confluent and PageRank is
//     deterministic integer fixed-point, so a query's result is bit-identical
//     to its one-shot run no matter how steps interleave.
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
	// Every algorithm before it runs one query per step from a pre-bound
	// slot.
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
	// BatchSize is the number of queries answered by the step that produced
	// this result: 1 for BFS and SSSP, which run one query per step, and the
	// member count of the shared job for PageRank.
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
	Batch   int // Result.BatchSize once done
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

// ID returns the query id (also the query-context id its epoch is tagged
// with; PageRank rounds carry the id of the shared job's first member).
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

// kernel is the reset/seed/invoke seam BFS and SSSP share, so one step
// runner serves both.
type kernel interface {
	ResetLocal(r *am.Rank)
	SeedLocal(r *am.Rank, seeds []distgraph.Vertex, src distgraph.Vertex) []distgraph.Vertex
	InvokeSeeds(r *am.Rank, seeds []distgraph.Vertex)
}

// slot is a pre-bound kernel and the vector it leaves its answer in.
type slot struct {
	k   kernel
	out *pmap.VertexWord
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

// roundPlan is one scheduling step, decided by rank 0 under mu and published
// to every rank by the plan barrier: one BFS or SSSP query, or one round of
// the shared PageRank job. The plan rotates over the classes that have work,
// so fairness is structural: a long PageRank run interleaves its rounds with
// whole queries, and neither source class waits behind the other's backlog.
type roundPlan struct {
	stop bool
	q    *job
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

	queueDepth      int
	defaultDeadline time.Duration
	retain          int

	slots [PageRank]slot // one per source algorithm, indexed by Algo
	pr    *algorithms.PageRank
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
	next     Algo // the class the next plan tries first
	stopping bool
	serving  bool

	// plan is written by rank 0 in lead() and read by every rank after the
	// plan barrier; the barrier orders the write before the reads and the
	// round-end barrier orders the reads before the next write.
	plan roundPlan
}

// New builds a resident query service over eng's universe and graph,
// pre-binding one BFS slot, one SSSP slot, and one shared PageRank job. Must
// be called before Universe.Run.
func New(eng *pattern.Engine, opts ...Option) *Service {
	s := &Service{
		eng:        eng,
		u:          eng.Universe(),
		g:          eng.Graph(),
		queueDepth: 256,
		retain:     256,
		byID:       map[int64]*job{},
		gather:     (*pmap.VertexWord).Gather,
	}
	s.cond = sync.NewCond(&s.mu)
	b, ss := algorithms.NewBFS(eng), algorithms.NewSSSP(eng)
	s.slots = [PageRank]slot{BFS: {b, b.Level}, SSSP: {ss, ss.Dist}}
	s.pr = algorithms.NewPageRank(eng, algorithms.PageRankPush)
	for _, o := range opts {
		o(s)
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
	// mid-flight, and their tickets must still resolve.
	for _, j := range s.byID {
		s.failLocked(j, cause)
	}
	s.queue = nil
	s.prJob = nil
}

// body is the per-rank scheduling loop: rank 0 decides a step's plan while
// the others wait at the plan barrier, every rank executes the step, and rank
// 0 completes what it finished after the round-end barrier.
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
		if p.q != nil {
			s.runQuery(r, p.q)
		} else {
			s.runPRStep(r, p.pr)
		}
		r.Barrier() // round end: all property-map writes visible to rank 0
		if r.ID() == 0 {
			s.finishRound(p)
		}
	}
}

// lead blocks until there is work (or the service stops) and decides one
// scheduling step: the next class in rotation that has work takes it. Runs
// on rank 0 only, under mu.
func (s *Service) lead() roundPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		s.reapLocked(time.Now())
		if s.stopping {
			return roundPlan{stop: true}
		}
		s.attachPRLocked()
		for range numAlgos {
			a := s.next
			s.next = (a + 1) % numAlgos
			if a != PageRank {
				if j := s.takeLocked(a); j != nil {
					return roundPlan{q: j}
				}
			} else if s.prJob != nil {
				p := roundPlan{pr: &prStep{qid: s.prJob.members[0].id, begin: !s.prJob.begun,
					last: s.prJob.rounds+1 >= s.pr.MaxIters}}
				s.prJob.begun = true
				return p
			}
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

// takeLocked removes the oldest queued job of the given algorithm, if any,
// and marks it running.
func (s *Service) takeLocked(a Algo) *job {
	for i, j := range s.queue {
		if j.req.Algo == a {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			j.state = StateRunning
			j.started = time.Now()
			return j
		}
	}
	return nil
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

// runQuery answers one BFS or SSSP query: its algorithm's slot is reset and
// seeded locally, then the frontier relaxes to its fixed point inside one
// epoch tagged with the query's id. That epoch is the query's own, so it ends
// when this query is done and no other.
func (s *Service) runQuery(r *am.Rank, j *job) {
	k := s.slots[j.req.Algo].k
	ph := r.Phase(obs.PhaseCollect)
	k.ResetLocal(r)
	seeds := k.SeedLocal(r, nil, j.req.Source)
	ph.End()
	r.Barrier()
	r.EpochCtx(j.id, func(*am.Epoch) { k.InvokeSeeds(r, seeds) })
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

// finishRound completes what the step finished, on rank 0. The answer is
// gathered first, outside mu — the round-end barrier ordered every rank's
// writes before this and nothing writes the slot until rank 0 plans the next
// step, while a gather copies |V| words and would stall every Submit, Status
// and Value behind it. Then, under mu, results are stamped and tickets
// closed.
func (s *Service) finishRound(p roundPlan) {
	var vals []int64
	prDone := p.pr != nil && (p.pr.converged || p.pr.last)
	switch {
	case p.q != nil:
		vals = s.gather(s.slots[p.q.req.Algo].out)
	case prDone:
		vals = s.gather(s.pr.Rank)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if p.q != nil {
		s.met.observeBatch(1)
		s.completeLocked(p.q, vals, 0, 1, now)
		return
	}
	if s.prJob == nil {
		return
	}
	s.prJob.rounds++
	if prDone {
		members := s.prJob.members
		s.met.observeBatch(len(members))
		for _, j := range members {
			s.completeLocked(j, vals, s.prJob.rounds, len(members), now)
		}
		s.prJob = nil
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
