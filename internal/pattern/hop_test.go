package pattern

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
)

// TestHopPathAllocFree: the message side of the item path allocates nothing
// either. A mailed relaxation resumed through dispatchBatch unpacks into a
// pooled cursor; a coalesced re-run is staged in a cursor, handed to am when
// the cursor is released, and runs as an entry through dispatchBatch. The hop
// message is the destination and its header in 16 bytes plus hopWords words.
func TestHopPathAllocFree(t *testing.T) {
	if got, want := unsafe.Sizeof(hopMsg{}), uintptr(16+8*hopWords); got != want {
		t.Fatalf("hopMsg is %d bytes, want 16 + 8·%d = %d", got, hopWords, want)
	}
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	env := newItemEnv(t, itemCases[0])
	eng, relax := env.action.eng, env.action
	relax.SetWorkRerun()
	if relax.pending == nil {
		t.Fatal("relax is not coalesced")
	}
	if carry := relax.prog.conds[0].evalHop().carry; len(carry) != 1 {
		t.Fatalf("the relax hop carries %d words, want 1", len(carry))
	}
	const v = distgraph.Vertex(7)
	id := int32(relax.ca.id)
	var resumed, entered, requested float64
	if err := env.u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			// The offer never improves v's key, so the hook stays quiet.
			env.key.Set(0, v, 0)
			h := []hopMsg{{Action: id, Hop: 0, Dest: v, W: [hopWords]Word{5}}}
			resumed = testing.AllocsPerRun(100, func() { eng.dispatchBatch(r, h) })
			e := []hopMsg{{Action: id, Hop: hopEntry, Dest: v}}
			entered = testing.AllocsPerRun(100, func() { eng.dispatchBatch(r, e) })
			at := eng.site(v)
			requested = testing.AllocsPerRun(100, func() {
				relax.pending[at.rank][at.li].Store(0)
				c := eng.cursor(r)
				relax.requestRerun(c, v, at)
				relax.release(r, c)
			})
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, c := range []struct {
		name   string
		allocs float64
	}{{"resumed hop", resumed}, {"entry", entered}, {"re-run request", requested}} {
		if c.allocs != 0 {
			t.Errorf("%s: %v allocs per message, want 0", c.name, c.allocs)
		}
	}
}

// TestDispatchChecksHop: a message that addresses no bound step, or an entry
// or a work-hook firing at a vertex the receiving rank does not own, panics in
// dispatchBatch, naming its action, condition and hop, before anything indexes
// the program or runs a hook; on a universe that contains handler faults it
// fails the run with that message.
func TestDispatchChecksHop(t *testing.T) {
	n, edges := gen.RMAT(6, 4, gen.Weights{Min: 1, Max: 9}, 3)
	bad := []hopMsg{
		{Action: 1, Hop: hopEntry},
		{Action: -1, Hop: hopFire},
		{Action: 0, Cond: 1, Hop: 0},
		{Action: 0, Cond: 0, Hop: 1},
		{Action: 0, Cond: -3, Hop: 0},
		{Action: 0, Cond: 2, Hop: hopEntry},
		{Action: 0, Hop: -7},
		{Action: 0, Hop: hopEntry, Dest: distgraph.Vertex(n)},
		{Action: 0, Hop: hopEntry, Dest: distgraph.Vertex(n - 1)}, // owned by rank 1
		{Action: 0, Hop: hopFire, Dest: distgraph.Vertex(n - 1)},
	}
	setup := func(opts ...am.Option) (*am.Universe, *Engine) {
		u := am.New(2, opts...)
		d := distgraph.NewBlockDist(n, 2)
		g := distgraph.Build(d, edges, distgraph.Options{})
		eng := NewEngine(u, g, pmap.NewLockMap(d, 1), DefaultPlanOptions())
		if _, err := eng.Bind(buildSSSP(), Bindings{"dist": pmap.NewVertexWord(d, Inf), "weight": pmap.WeightMap(g)}); err != nil {
			t.Fatal(err)
		}
		return u, eng
	}
	u, eng := setup()
	if err := u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			if r.ID() != 0 {
				return
			}
			for _, m := range bad {
				func() {
					defer func() {
						p := recover()
						err, ok := p.(error)
						if !ok || !strings.Contains(err.Error(), hopFields(m)) {
							t.Errorf("%+v: dispatchBatch panicked with %v, want an error naming %q", m, p, hopFields(m))
						}
					}()
					eng.dispatchBatch(r, []hopMsg{m})
				}()
			}
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, m := range append(bad[:2:2], bad[len(bad)-1]) {
		u, eng := setup(am.WithFaultPlan(&am.FaultPlan{}))
		err := u.Run(func(r *am.Rank) {
			r.Epoch(func(*am.Epoch) {
				if r.ID() == 1 {
					eng.MsgType().SendTo(r, 0, m)
				}
			})
		})
		if err == nil || !strings.Contains(err.Error(), hopFields(m)) {
			t.Errorf("%+v: Run returned %v, want a handler fault naming %q", m, err, hopFields(m))
		}
	}
	// Invoke and InvokeAsync refuse an entry at a vertex outside the graph
	// with the same message, on the rank its site names: 255 vertices in
	// blocks of 128 put vertex 255 at rank 1's local index 127, one past its
	// shard.
	d := distgraph.NewBlockDist(255, 2)
	u = am.New(2)
	eng = NewEngine(u, distgraph.Build(d, nil, distgraph.Options{}), pmap.NewLockMap(d, 1), DefaultPlanOptions())
	bound, err := eng.Bind(buildBFS(), Bindings{"lvl": pmap.NewVertexWord(d, Inf)})
	if err != nil {
		t.Fatal(err)
	}
	visit := bound.Action("visit")
	want := hopFields(hopMsg{Hop: hopEntry})
	if err := u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			if r.ID() != 1 {
				return
			}
			for name, invoke := range map[string]func(*am.Rank, distgraph.Vertex){"Invoke": visit.Invoke, "InvokeAsync": visit.InvokeAsync} {
				func() {
					defer func() {
						p := recover()
						err, ok := p.(error)
						if !ok || !strings.Contains(err.Error(), "addresses no bound step: "+want) {
							t.Errorf("%s(r, 255) on rank 1 panicked with %v, want checkHop's refusal naming %q", name, p, want)
						}
					}()
					invoke(r, 255)
				}()
			}
		})
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func hopFields(m hopMsg) string {
	return fmt.Sprintf("action %d, cond %d, hop %d", m.Action, m.Cond, m.Hop)
}

// FuzzHopMsg: whatever bytes arrive, the fixed codec either refuses them or
// yields hop messages that dispatchBatch's check accepts or refuses without
// panicking — and the accepted ones, as one batch, run on the bound SSSP
// program without panicking either.
func FuzzHopMsg(f *testing.F) {
	codec, err := am.FixedCodec[hopMsg]()
	if err != nil {
		f.Fatal(err)
	}
	for _, batch := range [][]hopMsg{
		{{Action: 0, Hop: 0, Dest: 3, W: [hopWords]Word{5}}},
		{{Action: 0, Hop: hopEntry, Dest: 1}, {Action: 0, Hop: hopFire, Dest: 2}},
		{{Action: 2, Cond: 9, Hop: 4, Dest: 1 << 20, W: [hopWords]Word{-1, 1 << 62, 0, 7}}},
	} {
		b, err := codec.Append(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	n, edges := gen.RMAT(6, 4, gen.Weights{Min: 1, Max: 9}, 3)
	d := distgraph.NewBlockDist(n, 1)
	g := distgraph.Build(d, edges, distgraph.Options{})
	f.Fuzz(func(t *testing.T, b []byte) {
		msgs, err := codec.Decode(nil, b)
		if err != nil {
			return
		}
		u := am.New(1)
		eng := NewEngine(u, g, pmap.NewLockMap(d, 1), DefaultPlanOptions())
		bound, err := eng.Bind(buildSSSP(), Bindings{"dist": pmap.NewVertexWord(d, Inf), "weight": pmap.WeightMap(g)})
		if err != nil {
			t.Fatal(err)
		}
		bound.Action("relax").SetWorkRerun()
		var ok []hopMsg
		for i := range msgs {
			if _, err := eng.checkHop(0, &msgs[i]); err == nil {
				ok = append(ok, msgs[i])
			}
		}
		if err := u.Run(func(r *am.Rank) {
			r.Epoch(func(*am.Epoch) {
				eng.dispatchBatch(r, ok)
			})
		}); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}
