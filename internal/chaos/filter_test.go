package chaos

import (
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
)

// TestFilterEngagedAcrossDimensions: every scenario in this package runs the
// engine as shipped, send-side filter on (engine() binds with
// pattern.DefaultPlanOptions, and so does an mp worker), so the matrix's
// bit-identity is a statement about filtered runs — provided the filter
// engages. This pins that it does in each in-process dimension: a lossy
// network, a crash schedule rolled back and replayed, and sockets with
// flapping links. (The trusted baselines the matrix compares against are
// co-resident: their relaxations are applied in place and nothing is
// filtered.)
func TestFilterEngagedAcrossDimensions(t *testing.T) {
	if !pattern.DefaultPlanOptions().Filter {
		t.Fatal("the shipped plan options no longer filter: the chaos matrix stopped covering the send-side filter")
	}
	requireLoopback(t)
	w := workload(t, 9, 8)
	src := distgraph.Vertex(3)
	scenarios := map[string]Scenario{
		"baseline": {Ranks: 4, Threads: 2, Coalesce: 4},
		"faults": {Ranks: 4, Threads: 2, Coalesce: 4, Plan: &am.FaultPlan{
			Seed: harness.DeriveSeed(baseSeed, "filter/faults"), Drop: 0.05, Dup: 0.10, Delay: 0.10}},
		"crash+recovery": {Ranks: 4, Threads: 2, Coalesce: 4, Recovery: true, Plan: crashSchedules()["mid-epoch"]},
		"unix+flaky":     {Ranks: 3, Threads: 2, Coalesce: 4, Transport: "unix", SockFaults: flakySockFaults()},
	}
	want, _ := RunBFS(w, scenarios["baseline"], src)
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			u, eng, _ := engine(w, sc, distgraph.Options{})
			b := algorithms.NewBFS(eng)
			mustRun(sc, u.Run(func(r *am.Rank) { b.Run(r, src) }))
			check(t, "BFS", sc, b.Level.Gather(), want)
			if f := b.Visit.Stats.FilteredHops.Load(); (f > 0) != (name != "baseline") {
				t.Fatalf("BFS under %s: %d filtered hops", sc, f)
			}
			if sc.Recovery && u.Stats.Snapshot().Recoveries == 0 {
				t.Fatalf("BFS under %s: the crash schedule never rolled an epoch back", sc)
			}
		})
	}
}
