package experiments

import (
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
)

// E13PushPull compares PageRank's push pattern (scatter over out-edges: one
// message per edge, remote atomic add) against the pull pattern (gather over
// in-edges: a two-hop remote read per edge) — the message asymmetry the
// bidirectional storage model (§III-A) lets patterns choose between.
func E13PushPull(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	const iters = 10
	t := harness.NewTable("E13: PageRank push vs pull (10 rounds)",
		"mode", "plan-msgs/edge", "messages", "handlers", "time", "max-|Δrank|")
	var ranks [2][]int64
	for i, mode := range []algorithms.PageRankMode{algorithms.PageRankPush, algorithms.PageRankPull} {
		gopts := distgraph.Options{}
		name := "push(out_edges)"
		if mode == algorithms.PageRankPull {
			gopts.Bidirectional = true
			name = "pull(in_edges)"
		}
		e := newEnv(am.New(4, am.WithThreads(2)), n, edges, gopts, PaperPlan())
		pr := algorithms.NewPageRank(e.eng, mode)
		pr.MaxIters = iters
		pr.Tolerance = 0
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { pr.Run(r) })
		})
		ranks[i] = pr.Rank.Gather()
		maxDiff := int64(0)
		if i == 1 {
			for v := range ranks[0] {
				diff := ranks[0][v] - ranks[1][v]
				if diff < 0 {
					diff = -diff
				}
				if diff > maxDiff {
					maxDiff = diff
				}
			}
		}
		t.Add(row([]any{name, pr.Action.PlanInfo().Conds[0].Messages},
			statCells(e.u, "messages", "handlers"), d, maxDiff)...)
	}
	return []*harness.Table{t}
}
