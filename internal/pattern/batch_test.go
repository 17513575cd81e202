package pattern

import (
	"slices"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pmap"
)

// batchEnv is a 4-vertex graph on 2 ranks (rank 0 owns 0 and 1, rank 1 owns
// 2 and 3) with edges 0→1, 0→2 and 0→3 of weight 1, and two actions bound on
// one engine with Direct and Filter off, so every hop to rank 1 is mailed:
// SSSP's relax (action 0), its own coalesced work hook, and BFS's visit
// (action 1), whose work hook records the vertices it runs at on rank 0.
type batchEnv struct {
	u      *am.Universe
	eng    *Engine
	relax  *BoundAction
	visit  *BoundAction
	dist   *pmap.VertexWord
	lvl    *pmap.VertexWord
	hooked []distgraph.Vertex
}

func newBatchEnv(t *testing.T, opts ...am.Option) *batchEnv {
	t.Helper()
	u := am.New(2, opts...)
	d := distgraph.NewBlockDist(4, 2)
	g := distgraph.Build(d, []distgraph.Edge{{Src: 0, Dst: 1, W: 1}, {Src: 0, Dst: 2, W: 1}, {Src: 0, Dst: 3, W: 1}}, distgraph.Options{})
	po := DefaultPlanOptions()
	po.Direct, po.Filter = false, false
	env := &batchEnv{u: u, eng: NewEngine(u, g, pmap.NewLockMap(d, 1), po),
		dist: pmap.NewVertexWord(d, Inf), lvl: pmap.NewVertexWord(d, Inf)}
	sssp, err := env.eng.Bind(buildSSSP(), Bindings{"dist": env.dist, "weight": pmap.WeightMap(g)})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := env.eng.Bind(buildBFS(), Bindings{"lvl": env.lvl})
	if err != nil {
		t.Fatal(err)
	}
	env.relax, env.visit = sssp.Action("relax"), bfs.Action("visit")
	env.relax.SetWorkRerun()
	if env.relax.pending == nil {
		t.Fatal("relax is not coalesced")
	}
	env.visit.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		if r.ID() == 0 { // rank 0 handles on one goroutine: its main
			env.hooked = append(env.hooked, v)
		}
	})
	env.dist.Set(0, 0, 0)
	env.lvl.Set(0, 0, 0)
	return env
}

// batch is the hand-built batch rank 0 handles, in three runs: relax's entry
// at 0 and a mailed relax hop offering 1 the distance 0; visit's entry at 0
// and a firing of visit's work hook at 1; a firing of relax's at 0. On rank 0:
//   - relax's entry sets dist[1] = 1 and stages a re-run of relax at 1 for rank
//     0, and the hops to 2 and 3 for rank 1;
//   - the hop lowers dist[1] to 0, but the re-run at 1 has not started, so the
//     firing loses the pending word and sends nothing;
//   - visit's entry sets lvl[1] = 1, runs visit's hook at 1 in place, and
//     stages the hops to 2 and 3 for rank 1;
//   - visit's firing at 1 runs visit's hook at 1 again;
//   - relax's firing at 0 wins 0's pending word (relax's entry cleared it)
//     and stages a re-run of relax at 0 for rank 0.
func (env *batchEnv) batch() []hopMsg {
	relax, visit := int32(env.relax.ca.id), int32(env.visit.ca.id)
	return []hopMsg{
		{Action: relax, Hop: hopEntry, Dest: 0},
		{Action: relax, Hop: 0, Dest: 1, W: [hopWords]Word{0}},
		{Action: visit, Hop: hopEntry, Dest: 0},
		{Action: visit, Hop: hopFire, Dest: 1},
		{Action: relax, Hop: hopFire, Dest: 0},
	}
}

// batchSends is how many messages each of batch's messages sends.
var batchSends = []int{3, 0, 2, 0, 1}

func statsOf(ba *BoundAction) [numStats]int64 {
	var out [numStats]int64
	for id := range out {
		out[id] = ba.Stats.c.Total(id)
	}
	return out
}

// TestBatchDispatch: a delivered batch runs as the engine's unit of work. Each
// run of messages for one action counts exactly its own messages in that
// action's Stats, every send the batch staged is in am — shipped or in a
// coalescing buffer — when dispatchBatch returns, and with lineage on each
// message's sends carry that message's handler id as their parent.
func TestBatchDispatch(t *testing.T) {
	t.Run("stats-and-sends", func(t *testing.T) {
		env := newBatchEnv(t)
		var relaxN, visitN [numStats]int64
		var staged int64
		done := make(chan struct{})
		if err := env.u.Run(func(r *am.Rank) {
			r.Epoch(func(*am.Epoch) {
				if r.ID() == 1 {
					<-done // rank 1 handles nothing until rank 0 has looked
					return
				}
				defer close(done)
				inAM := func() int64 {
					m := env.u.Metrics()
					n := m.CoalesceBuffered[0] + m.CoalesceBuffered[1]
					for _, ts := range m.Types {
						if ts.Name == env.eng.MsgType().Name() {
							n += ts.Sent
						}
					}
					return n
				}
				relax0, visit0, sent0 := statsOf(env.relax), statsOf(env.visit), inAM()
				env.eng.dispatchBatch(r, env.batch())
				staged = inAM() - sent0
				relaxN, visitN = statsOf(env.relax), statsOf(env.visit)
				for id := range relaxN {
					relaxN[id] -= relax0[id]
					visitN[id] -= visit0[id]
				}
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var wantRelax, wantVisit [numStats]int64
		wantRelax[sInvocations], wantRelax[sItems] = 1, 3
		wantRelax[sTestsTrue], wantRelax[sModsChanged], wantRelax[sWorkItems] = 2, 2, 2+1
		wantVisit[sInvocations], wantVisit[sItems] = 1, 3
		wantVisit[sTestsTrue], wantVisit[sModsChanged], wantVisit[sWorkItems] = 1, 1, 1+1
		if relaxN != wantRelax {
			t.Errorf("relax's Stats moved by %v, want %v (%v)", relaxN, wantRelax, statNames)
		}
		if visitN != wantVisit {
			t.Errorf("visit's Stats moved by %v, want %v (%v)", visitN, wantVisit, statNames)
		}
		want := int64(0)
		for _, n := range batchSends {
			want += int64(n)
		}
		if staged != want {
			t.Errorf("%d sends in am when dispatchBatch returned, want %d", staged, want)
		}
		if want := []distgraph.Vertex{1, 1}; !slices.Equal(env.hooked, want) {
			t.Errorf("visit's hook ran at %v, want %v", env.hooked, want)
		}
		for v, want := range []int64{0, 0, 1, 1} {
			if got := env.dist.Gather()[v]; got != want {
				t.Errorf("dist[%d] = %d, want %d", v, got, want)
			}
		}
	})
	t.Run("lineage", func(t *testing.T) {
		env := newBatchEnv(t, am.WithTraceCapacity(1<<12))
		if err := env.u.Run(func(r *am.Rank) {
			r.Epoch(func(*am.Epoch) {
				if r.ID() == 1 {
					env.eng.MsgType().SendAll(r, 0, env.batch())
				}
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
		meta, recs := env.u.ExportTrace("batch")
		lin := obs.BuildLineage(meta, recs)
		if !lin.Connected() {
			t.Fatalf("causal forest has %d orphans", lin.Orphans)
		}
		// Rank 0's first handler invocations are the batch's messages, in
		// order; count the invocations each one's sends caused.
		var batch []uint64
		children := map[uint64]int{}
		for id, n := range lin.ByID {
			children[n.Parent]++
			if n.Rank == 0 && obs.IsRootLineageID(n.Parent) {
				batch = append(batch, id)
			}
		}
		slices.Sort(batch)
		if len(batch) != len(batchSends) {
			t.Fatalf("rank 0 handled %d messages from rank 1's body, want %d", len(batch), len(batchSends))
		}
		for i, id := range batch {
			if children[id] != batchSends[i] {
				t.Errorf("message %d (%+v): %d handler invocations name it their parent, want %d",
					i, env.batch()[i], children[id], batchSends[i])
			}
		}
	})
}
