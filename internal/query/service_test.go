package query_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/query"
)

const (
	tScale = 8
	tEF    = 8
	tSeed  = 42
	tRanks = 4
)

func testEdges() (int, []distgraph.Edge) {
	return gen.RMAT(tScale, tEF, gen.Weights{Min: 1, Max: 100}, tSeed)
}

// buildService assembles a resident service over the shared test graph,
// its universe terminating epochs with the given detector.
func buildService(t *testing.T, det am.DetectorKind, opts ...query.Option) *query.Service {
	t.Helper()
	n, edges := testEdges()
	u := am.New(tRanks, am.WithThreads(2), am.WithDetector(det))
	dist := distgraph.NewBlockDist(n, tRanks)
	g := distgraph.Build(dist, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())
	return query.New(eng, opts...)
}

// oneShot computes the reference answers with dedicated one-shot runs in a
// fresh universe over the identical graph: per-source BFS levels and SSSP
// distances, plus the converged PageRank vector and its round count.
func oneShot(t *testing.T, sources []distgraph.Vertex) (bfs, sssp map[distgraph.Vertex][]int64, pr []int64, prRounds int) {
	t.Helper()
	n, edges := testEdges()
	u := am.New(tRanks, am.WithThreads(2))
	dist := distgraph.NewBlockDist(n, tRanks)
	g := distgraph.Build(dist, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())
	b := algorithms.NewBFS(eng)
	ss := algorithms.NewSSSP(eng)
	p := algorithms.NewPageRank(eng, algorithms.PageRankPush)
	bfs = map[distgraph.Vertex][]int64{}
	sssp = map[distgraph.Vertex][]int64{}
	err := u.Run(func(r *am.Rank) {
		for _, src := range sources {
			b.Run(r, src)
			r.Barrier()
			if r.ID() == 0 {
				bfs[src] = b.Level.Gather()
			}
			r.Barrier()
			ss.Run(r, src)
			r.Barrier()
			if r.ID() == 0 {
				sssp[src] = ss.Dist.Gather()
			}
			r.Barrier()
		}
		p.Run(r)
		if r.ID() == 0 {
			pr = p.Rank.Gather()
			prRounds = p.Rounds
		}
	})
	if err != nil {
		t.Fatalf("one-shot reference run: %v", err)
	}
	return bfs, sssp, pr, prRounds
}

func eqVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentMixedBitIdentical floods one resident universe with >= 64
// concurrent mixed BFS/SSSP/PageRank queries from many goroutines and checks
// every result is bit-identical to its one-shot equivalent, under both
// termination detectors: no detector wave may end one query context's epoch
// on counters sampled under another.
func TestConcurrentMixedBitIdentical(t *testing.T) {
	sources := []distgraph.Vertex{1, 7, 33, 64, 100, 150, 200, 250}
	wantBFS, wantSSSP, wantPR, wantRounds := oneShot(t, sources)
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			s := buildService(t, det, query.WithMaxFusion(8), query.WithQueueDepth(1024), query.WithRetain(1024))
			serveDone := make(chan error, 1)
			go func() { serveDone <- s.Serve() }()

			const goroutines = 24
			const perG = 3 // 72 queries total, mixed across the three algorithms
			tickets := make([]*query.Ticket, goroutines*perG)
			var wg sync.WaitGroup
			for gi := 0; gi < goroutines; gi++ {
				wg.Add(1)
				go func(gi int) {
					defer wg.Done()
					for k := 0; k < perG; k++ {
						idx := gi*perG + k
						req := query.Request{Algo: query.Algo(idx % 3), Source: sources[idx%len(sources)]}
						tk, err := s.Submit(req)
						if err != nil {
							t.Errorf("submit %d: %v", idx, err)
							return
						}
						tickets[idx] = tk
					}
				}(gi)
			}
			wg.Wait()

			for idx, tk := range tickets {
				if tk == nil {
					continue
				}
				res, err := tk.Wait()
				if err != nil {
					t.Fatalf("query %d failed: %v", idx, err)
				}
				switch res.Algo {
				case query.BFS:
					if !eqVec(res.Values, wantBFS[res.Source]) {
						t.Errorf("BFS from %d: values differ from one-shot run", res.Source)
					}
				case query.SSSP:
					if !eqVec(res.Values, wantSSSP[res.Source]) {
						t.Errorf("SSSP from %d: values differ from one-shot run", res.Source)
					}
				case query.PageRank:
					if !eqVec(res.Values, wantPR) {
						t.Errorf("PageRank: values differ from one-shot run")
					}
					if res.Rounds != wantRounds {
						t.Errorf("PageRank rounds = %d, one-shot ran %d", res.Rounds, wantRounds)
					}
				}
			}

			if n := s.Universe().Stats.Snapshot().QueryMismatches; n != 0 {
				t.Errorf("substrate observed %d query-context mismatches on a trusted transport", n)
			}
			s.Stop()
			if err := <-serveDone; err != nil {
				t.Fatalf("serve: %v", err)
			}
		})
	}
}

// TestFusionBatch pre-loads 16 BFS queries so the first scheduling round must
// fuse 8 of them (the MaxFusion cap) into a single sweep.
func TestFusionBatch(t *testing.T) {
	sources := []distgraph.Vertex{1, 7, 33, 64, 100, 150, 200, 250}
	wantBFS, _, _, _ := oneShot(t, sources)

	s := buildService(t, am.DetectorAtomic, query.WithMaxFusion(8))
	var tickets []*query.Ticket
	for i := 0; i < 16; i++ {
		tk, err := s.Submit(query.Request{Algo: query.BFS, Source: sources[i%len(sources)]})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	fused := 0
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.BatchSize > fused {
			fused = res.BatchSize
		}
		if !eqVec(res.Values, wantBFS[res.Source]) {
			t.Errorf("fused BFS from %d differs from one-shot run", res.Source)
		}
	}
	if fused < 8 {
		t.Errorf("largest fused batch = %d queries, want >= 8 in one sweep", fused)
	}
	if st := s.Stats(); st.MaxBatch < 8 {
		t.Errorf("Stats().MaxBatch = %d, want >= 8", st.MaxBatch)
	}
	s.Stop()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestDeadlineExpiry submits an already-expired query and a healthy one: the
// first fails with ErrDeadline at the admission boundary, the second
// completes.
func TestDeadlineExpiry(t *testing.T) {
	s := buildService(t, am.DetectorAtomic)
	expired, err := s.Submit(query.Request{Algo: query.BFS, Source: 1, Deadline: -time.Millisecond})
	if err != nil {
		t.Fatalf("submit expired: %v", err)
	}
	healthy, err := s.Submit(query.Request{Algo: query.BFS, Source: 1, Deadline: time.Minute})
	if err != nil {
		t.Fatalf("submit healthy: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	if _, err := expired.Wait(); !errors.Is(err, query.ErrDeadline) {
		t.Errorf("expired query: err = %v, want ErrDeadline", err)
	}
	if _, err := healthy.Wait(); err != nil {
		t.Errorf("healthy query: %v", err)
	}
	st, err := s.Status(expired.ID())
	if err != nil {
		t.Fatalf("status of expired query: %v", err)
	}
	if st.State != query.StateFailed || !errors.Is(st.Err, query.ErrDeadline) {
		t.Errorf("expired status = %q/%v, want failed/ErrDeadline", st.State, st.Err)
	}
	s.Stop()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestCancel covers both cancellation paths: a queued query canceled before
// the service starts, and a long PageRank run canceled between rounds while
// its epochs are in flight.
func TestCancel(t *testing.T) {
	// PageRank is the one multi-round job: on this graph the integer fixed
	// point is reached after ~24 scheduling rounds, about 2 ms.
	s := buildService(t, am.DetectorAtomic, query.WithPageRank(400, 1))
	queued, err := s.Submit(query.Request{Algo: query.SSSP, Source: 3})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	queued.Cancel()

	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	if _, err := queued.Wait(); !errors.Is(err, query.ErrCanceled) {
		t.Errorf("queued cancel: err = %v, want ErrCanceled", err)
	}

	long, err := s.Submit(query.Request{Algo: query.PageRank})
	if err != nil {
		t.Fatalf("submit long PR: %v", err)
	}
	// Wait until the job is demonstrably mid-run, then cancel between rounds.
	// Poll without sleeping: a millisecond timer sleep overshoots the whole
	// run often enough to make this test flaky.
	for {
		st, err := s.Status(long.ID())
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == query.StateRunning {
			break
		}
		if st.State == query.StateDone || st.State == query.StateFailed {
			t.Fatalf("long PR finished (%s) before cancel — tune it slower", st.State)
		}
		runtime.Gosched()
	}
	long.Cancel()
	if _, err := long.Wait(); !errors.Is(err, query.ErrCanceled) {
		t.Errorf("mid-run cancel: err = %v, want ErrCanceled", err)
	}

	// The plane keeps serving after cancellations.
	after, err := s.Submit(query.Request{Algo: query.BFS, Source: 5})
	if err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if _, err := after.Wait(); err != nil {
		t.Errorf("query after cancel: %v", err)
	}
	s.Stop()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestAdmissionControl covers submit-time rejections: a full queue, an
// out-of-range source, and an unknown algorithm.
func TestAdmissionControl(t *testing.T) {
	s := buildService(t, am.DetectorAtomic, query.WithQueueDepth(2))
	if _, err := s.Submit(query.Request{Algo: query.BFS, Source: 1}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := s.Submit(query.Request{Algo: query.BFS, Source: 2}); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := s.Submit(query.Request{Algo: query.BFS, Source: 3}); !errors.Is(err, query.ErrQueueFull) {
		t.Errorf("submit over capacity: err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(query.Request{Algo: query.BFS, Source: 1 << 30}); !errors.Is(err, query.ErrBadSource) {
		t.Errorf("bad source: err = %v, want ErrBadSource", err)
	}
	// The algorithm is checked before the source: a source can only be out
	// of range for an algorithm that takes one.
	_, err := s.Submit(query.Request{Algo: 7, Source: 1 << 30})
	if err == nil || errors.Is(err, query.ErrBadSource) || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("unknown algorithm with a bad source: err = %v, want the unknown-algorithm error", err)
	}
	if st := s.Stats(); st.Rejected != 3 {
		t.Errorf("rejected counter = %d, want 3", st.Rejected)
	}
}

// TestValueLookupAndMetrics exercises the point-lookup path and the
// OpenMetrics exposition of a served universe.
func TestValueLookupAndMetrics(t *testing.T) {
	sources := []distgraph.Vertex{9}
	wantBFS, _, _, _ := oneShot(t, sources)

	s := buildService(t, am.DetectorAtomic)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	tk, err := s.Submit(query.Request{Algo: query.BFS, Source: 9})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	for _, v := range []distgraph.Vertex{0, 9, 100} {
		got, err := s.Value(tk.ID(), v)
		if err != nil {
			t.Fatalf("value(%d): %v", v, err)
		}
		if got != wantBFS[9][v] {
			t.Errorf("value(%d) = %d, want %d", v, got, wantBFS[9][v])
		}
	}
	if _, err := s.Value(9999, 0); !errors.Is(err, query.ErrUnknown) {
		t.Errorf("unknown id: err = %v, want ErrUnknown", err)
	}
	if res.BatchSize < 1 {
		t.Errorf("batch size = %d, want >= 1", res.BatchSize)
	}

	var sb strings.Builder
	if err := s.WriteOpenMetrics(&sb); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"declpat_query_queue_depth",
		"declpat_query_admitted_total 1",
		"declpat_query_completed_total 1",
		"declpat_query_latency_seconds_bucket",
		"declpat_query_latency_quantile_seconds{algo=\"bfs\",q=\"0.5\"}",
		"declpat_query_batch_size_bucket",
		"declpat_pattern_items_total{action=\"bfs\"}",
		"declpat_pattern_direct_hops_total{action=\"relax\"} 0", // no SSSP query ran
		"declpat_ranks 4",
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	s.Stop()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestEpochsAreQueryTagged checks the substrate side of the tentpole: a
// traced service run attributes epoch trace events to the query contexts
// that issued them.
func TestEpochsAreQueryTagged(t *testing.T) {
	n, edges := testEdges()
	u := am.New(tRanks, am.WithThreads(2), am.WithTraceCapacity(1<<16))
	dist := distgraph.NewBlockDist(n, tRanks)
	g := distgraph.Build(dist, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())
	s := query.New(eng)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	tk1, err := s.Submit(query.Request{Algo: query.BFS, Source: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := tk1.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	tk2, err := s.Submit(query.Request{Algo: query.SSSP, Source: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := tk2.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	s.Stop()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	_, recs := u.ExportTrace("tagged")
	seen := map[int64]bool{}
	for _, r := range recs {
		if r.Kind == "epoch" {
			seen[r.Q] = true
		}
	}
	if !seen[tk1.ID()] || !seen[tk2.ID()] {
		t.Errorf("epoch trace records not tagged per query: saw contexts %v, want both %d and %d",
			seen, tk1.ID(), tk2.ID())
	}
}
