package pmap

import (
	"sync"
	"testing"
	"testing/quick"

	"declpat/internal/distgraph"
)

func TestVertexWordBasics(t *testing.T) {
	d := distgraph.NewBlockDist(10, 3)
	m := NewVertexWord(d, 99)
	for v := distgraph.Vertex(0); v < 10; v++ {
		r := d.Owner(v)
		if got := m.Get(r, v); got != 99 {
			t.Fatalf("init value %d", got)
		}
		m.Set(r, v, int64(v)*2)
	}
	g := m.Gather()
	for v, x := range g {
		if x != int64(v)*2 {
			t.Fatalf("Gather[%d]=%d", v, x)
		}
	}
}

func TestVertexWordOwnerEnforced(t *testing.T) {
	d := distgraph.NewBlockDist(10, 2)
	m := NewVertexWord(d, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-owner access")
		}
	}()
	m.Get(1-d.Owner(3), 3)
}

// TestVertexWordIndexAddressed: the *At accessors reach the same word as the
// vertex-addressed ones once (owner, local index) is resolved from the map's
// distribution.
func TestVertexWordIndexAddressed(t *testing.T) {
	d := distgraph.NewCyclicDist(10, 3)
	m := NewVertexWord(d, 50)
	for v := distgraph.Vertex(0); v < 10; v++ {
		owner, li := d.Owner(v), d.Local(v)
		if m.MinAt(owner, li, 60) || !m.MinAt(owner, li, 40) || m.Get(owner, v) != 40 {
			t.Fatalf("MinAt at vertex %d: value %d", v, m.Get(owner, v))
		}
		if m.MaxAt(owner, li, 30) || !m.MaxAt(owner, li, 70) || m.GetAt(owner, li) != 70 {
			t.Fatalf("MaxAt at vertex %d: value %d", v, m.Get(owner, v))
		}
		if got := m.AddAt(owner, li, int64(v)); got != 70+int64(v) || m.Get(owner, v) != got {
			t.Fatalf("AddAt at vertex %d: %d", v, got)
		}
		m.SetAt(owner, li, -1)
		if m.Get(owner, v) != -1 {
			t.Fatalf("SetAt at vertex %d: value %d", v, m.Get(owner, v))
		}
	}
}

// TestVertexWordFill: Fill writes every word of its rank's shard and no other
// rank's.
func TestVertexWordFill(t *testing.T) {
	d := distgraph.NewCyclicDist(11, 3)
	m := NewVertexWord(d, 7)
	m.Fill(1, -5)
	for v := distgraph.Vertex(0); v < 11; v++ {
		want := int64(7)
		if d.Owner(v) == 1 {
			want = -5
		}
		if got := m.Get(d.Owner(v), v); got != want {
			t.Errorf("vertex %d on rank %d: %d after Fill(1, -5), want %d", v, d.Owner(v), got, want)
		}
	}
}

func TestVertexWordMinMaxConcurrent(t *testing.T) {
	d := distgraph.NewBlockDist(1, 1)
	m := NewVertexWord(d, 1<<40)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	var changes [workers]int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				val := int64((i*workers + w) % 777)
				if m.Min(0, 0, val) {
					changes[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Get(0, 0); got != 0 {
		t.Fatalf("final min %d, want 0", got)
	}
	total := 0
	for _, c := range changes {
		total += c
	}
	if total < 1 {
		t.Fatal("no successful decrease recorded")
	}
}

func TestVertexWordAddCASSwap(t *testing.T) {
	d := distgraph.NewBlockDist(4, 2)
	m := NewVertexWord(d, 0)
	r := d.Owner(2)
	if m.Add(r, 2, 5) != 5 {
		t.Fatal("Add")
	}
	if !m.CAS(r, 2, 5, 7) || m.CAS(r, 2, 5, 9) {
		t.Fatal("CAS")
	}
	if !m.SetIfChanged(r, 2, 8) || m.SetIfChanged(r, 2, 8) {
		t.Fatal("SetIfChanged")
	}
	if m.Max(r, 2, 3) || !m.Max(r, 2, 100) {
		t.Fatal("Max")
	}
}

func TestEdgeWordWeightAlias(t *testing.T) {
	d := distgraph.NewBlockDist(4, 2)
	g := distgraph.Build(d, []distgraph.Edge{
		{Src: 0, Dst: 1, W: 5}, {Src: 1, Dst: 2, W: 7}, {Src: 2, Dst: 0, W: 3},
	}, distgraph.Options{Bidirectional: true})
	w := WeightMap(g)
	for r := 0; r < 2; r++ {
		lg := g.Local(r)
		for li := 0; li < lg.NumLocal(); li++ {
			v := d.Global(r, li)
			g.ForOutEdges(r, v, func(e distgraph.EdgeRef) {
				if w.Get(r, e) != g.Weight(r, e) {
					t.Fatalf("weight alias mismatch at %v", e)
				}
			})
			g.ForInEdges(r, v, func(e distgraph.EdgeRef) {
				if w.Get(r, e) != g.Weight(r, e) {
					t.Fatalf("in weight alias mismatch at %v", e)
				}
			})
		}
	}
}

func TestEdgeWordMirror(t *testing.T) {
	d := distgraph.NewBlockDist(4, 2)
	g := distgraph.Build(d, []distgraph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 2},
	}, distgraph.Options{Bidirectional: true})
	m := NewEdgeWord(g, -1)
	// Write canonical values = 10*src + trg, then mirror.
	for r := 0; r < 2; r++ {
		lg := g.Local(r)
		for li := 0; li < lg.NumLocal(); li++ {
			v := d.Global(r, li)
			_ = lg
			g.ForOutEdges(r, v, func(e distgraph.EdgeRef) {
				m.Set(r, e, int64(e.Src())*10+int64(e.Trg()))
			})
		}
	}
	m.MirrorIn()
	for r := 0; r < 2; r++ {
		lg := g.Local(r)
		for li := 0; li < lg.NumLocal(); li++ {
			v := d.Global(r, li)
			_ = lg
			g.ForInEdges(r, v, func(e distgraph.EdgeRef) {
				want := int64(e.Src())*10 + int64(e.Trg())
				if got := m.Get(r, e); got != want {
					t.Fatalf("mirror of (%d->%d) = %d, want %d", e.Src(), e.Trg(), got, want)
				}
			})
		}
	}
	// Writing through an in-edge must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic writing in-edge mirror")
			}
		}()
		var inRef distgraph.EdgeRef
		found := false
		g.ForInEdges(g.Owner(1), 1, func(e distgraph.EdgeRef) {
			if !found {
				inRef, found = e, true
			}
		})
		m.Set(g.Owner(1), inRef, 1)
	}()
}

func TestLockMapGranularities(t *testing.T) {
	d := distgraph.NewBlockDist(64, 2)
	for _, gran := range []int{1, 4, 64, 1000} {
		lm := NewLockMap(d, gran)
		counts := make([]int, 64) // plain ints: the lock is the only synchronization
		var wg sync.WaitGroup
		const workers, per = 8, 500
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					v := distgraph.Vertex(i % 64)
					lm.With(d.Owner(v), v, func() { counts[v]++ })
				}
			}()
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != workers*per {
			t.Fatalf("gran=%d: total=%d want %d", gran, total, workers*per)
		}
	}
}

func TestVertexSetInsertAtomic(t *testing.T) {
	d := distgraph.NewBlockDist(8, 2)
	lm := NewLockMap(d, 1)
	s := NewVertexSet(d, lm)
	var wg sync.WaitGroup
	var inserted [4]int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				u := distgraph.Vertex(i % 10)
				if s.Insert(d.Owner(3), 3, u) {
					inserted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, c := range inserted {
		total += c
	}
	if total != 10 {
		t.Fatalf("successful inserts = %d, want 10 (set semantics)", total)
	}
	if got := s.Len(d.Owner(3), 3); got != 10 {
		t.Fatalf("Len=%d", got)
	}
	mem := s.Members(d.Owner(3), 3)
	for i, u := range mem {
		if u != distgraph.Vertex(i) {
			t.Fatalf("Members=%v", mem)
		}
	}
	if !s.Contains(d.Owner(3), 3, 5) || s.Contains(d.Owner(3), 3, 11) {
		t.Fatal("Contains")
	}
}

// Property: Min over any sequence equals the sequential minimum.
func TestVertexWordMinQuick(t *testing.T) {
	d := distgraph.NewBlockDist(1, 1)
	f := func(vals []int64) bool {
		m := NewVertexWord(d, int64(1)<<62)
		best := int64(1) << 62
		for _, v := range vals {
			m.Min(0, 0, v)
			if v < best {
				best = v
			}
		}
		return m.Get(0, 0) == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
