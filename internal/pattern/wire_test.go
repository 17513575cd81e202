package pattern

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// TestEngineOverWireTransport runs SSSP with the engine's message type routed
// through a real serialization round trip (the fixed codec): the entire
// pattern-engine message protocol must be wire-safe (a distributed
// deployment could ship patMsg as-is), and results must stay exact.
func TestEngineOverWireTransport(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 30}, 13)
	want := seq.Dijkstra(n, edges, 0)

	u := am.New(3, am.WithThreads(2))
	d := distgraph.NewBlockDist(n, 3)
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	eng := NewEngine(u, g, lm, DefaultPlanOptions())
	eng.MsgType().WithWire()

	dmap := pmap.NewVertexWord(d, Inf)
	bound, err := eng.Bind(buildSSSP(), Bindings{"dist": dmap, "weight": pmap.WeightMap(g)})
	if err != nil {
		t.Fatal(err)
	}
	relax := bound.Action("relax")
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })

	u.Run(func(r *am.Rank) {
		if g.Owner(0) == r.ID() {
			dmap.Set(r.ID(), 0, 0)
		}
		r.Barrier()
		r.Epoch(func(ep *am.Epoch) {
			if g.Owner(0) == r.ID() {
				relax.Invoke(r, 0)
			}
		})
	})
	got := dmap.Gather()
	for v := range want {
		w := want[v]
		if w == seq.Inf {
			w = Inf
		}
		if got[v] != w {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], w)
		}
	}
	if u.Stats.WireBytes() == 0 {
		t.Fatal("no serialized bytes — wire transport not exercised")
	}
	t.Logf("wire bytes: %d for %d messages (%d raw payload bytes)",
		u.Stats.WireBytes(), u.Stats.MsgsSent(), u.Stats.BytesSent())
}
