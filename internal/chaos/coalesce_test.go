package chaos

import (
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/seq"
)

// TestCoalesceEngagedAcrossDimensions: every scenario in this package runs the
// engine as shipped, coalesced re-invocation on, so the matrix's bit-identity
// is a statement about coalesced runs — provided coalescing engages. This pins
// that it does in each in-process dimension: the trusted baseline (where the
// applying thread requests the re-run), a lossy network (a dropped and
// retransmitted entry clears its word late, and every request in between
// merges into it), a crash schedule rolled back and replayed (the rollback
// must empty the words of the entries it dropped), and sockets with flapping
// links.
// Fixed-point SSSP improves a vertex often enough for requests to meet.
func TestCoalesceEngagedAcrossDimensions(t *testing.T) {
	if !pattern.DefaultPlanOptions().Coalesce {
		t.Fatal("the shipped plan options no longer coalesce: the chaos matrix stopped covering coalesced re-invocation")
	}
	requireLoopback(t)
	w := workload(t, 9, 8)
	src := distgraph.Vertex(3)
	scenarios := map[string]Scenario{
		"baseline": {Ranks: 4, Threads: 2, Coalesce: 4},
		"faults": {Ranks: 4, Threads: 2, Coalesce: 4, Plan: &am.FaultPlan{
			Seed: harness.DeriveSeed(baseSeed, "coalesce/faults"), Drop: 0.05, Dup: 0.10, Delay: 0.10}},
		"crash+recovery": {Ranks: 4, Threads: 2, Coalesce: 4, Recovery: true, Plan: crashSchedules()["mid-epoch"]},
		"unix+flaky":     {Ranks: 3, Threads: 2, Coalesce: 4, Transport: "unix", SockFaults: flakySockFaults()},
	}
	want := seq.Dijkstra(w.N, w.Edges, src)
	for i, d := range want {
		if d == seq.Inf {
			want[i] = pattern.Inf
		}
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			u, eng, _ := engine(w, sc, distgraph.Options{})
			s := algorithms.NewSSSP(eng)
			mustRun(sc, u.Run(func(r *am.Rank) { s.Run(r, src) }))
			check(t, "SSSP", sc, s.Dist.Gather(), want)
			// Every firing requests a re-run and every entry but the seed's
			// (one per attempt) is a request that won its word.
			st := &s.Relax.Stats
			attempts := 1 + u.Stats.Snapshot().Recoveries
			if merged := st.WorkItems.Load() + attempts - st.Invocations.Load(); merged <= 0 {
				t.Fatalf("SSSP under %s: %d firings, %d invocations: no request was ever merged", sc, st.WorkItems.Load(), st.Invocations.Load())
			}
			for rank := 0; rank < u.Ranks(); rank++ {
				if p := s.Relax.PendingReruns(rank); p != 0 {
					t.Errorf("SSSP under %s: rank %d ends with %d pending words set", sc, rank, p)
				}
			}
			if sc.Recovery && u.Stats.Snapshot().Recoveries == 0 {
				t.Fatalf("SSSP under %s: the crash schedule never rolled an epoch back", sc)
			}
		})
	}
}
