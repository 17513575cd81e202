package query

import (
	"sync/atomic"
	"testing"
	"time"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// TestFinishRoundGathersOutsideLock: completing a step copies the query's
// property vector, and a point lookup issued meanwhile must not wait for the
// copy. Every gather of eight queued queries' steps looks up a value of an
// earlier, retained query from another goroutine; were the gather running
// under the service lock (as it once did), the lookup could not return before
// the gather does.
func TestFinishRoundGathersOutsideLock(t *testing.T) {
	const ranks, width = 2, 8
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 100}, 42)
	u := am.New(ranks)
	dist := distgraph.NewBlockDist(n, ranks)
	g := distgraph.Build(dist, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(dist, 1), pattern.DefaultPlanOptions())
	s := New(eng)

	var first atomic.Int64 // id of the retained query the gathers look up
	var gathers, stalled atomic.Int64
	s.gather = func(m *pmap.VertexWord) []int64 {
		if id := first.Load(); id != 0 {
			gathers.Add(1)
			looked := make(chan error, 1)
			go func() {
				_, err := s.Value(id, 0)
				looked <- err
			}()
			select {
			case err := <-looked:
				if err != nil {
					t.Errorf("lookup during a gather: %v", err)
				}
			case <-time.After(2 * time.Second):
				stalled.Add(1)
			}
		}
		return m.Gather()
	}

	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	tk, err := s.Submit(Request{Algo: BFS, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	first.Store(tk.ID())

	var tks []*Ticket
	for i := 0; i < width; i++ {
		tk, err := s.Submit(Request{Algo: SSSP, Source: distgraph.Vertex(3 + i)})
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	for _, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Stop()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if gathers.Load() < int64(width) {
		t.Fatalf("%d gathers observed, want at least %d", gathers.Load(), width)
	}
	if stalled.Load() != 0 {
		t.Errorf("%d of %d lookups issued during a gather waited for the service lock", stalled.Load(), gathers.Load())
	}
}
