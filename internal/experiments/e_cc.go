package experiments

import (
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/seq"
)

// E3CCPacing reproduces the §II-B observation that "starting too many
// searches may lead to many remote accesses to record component conflicts":
// the epoch_flush pacing of Fig. 3's start loop controls how many searches
// run concurrently, trading fewer search waves against more recorded
// conflicts and resolution work.
func E3CCPacing(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	want := seq.Components(n, edges)
	t := harness.NewTable("E3: CC parallel search — epoch_flush pacing",
		"flush-every", "searches", "claims", "conflicts", "jump-rounds", "messages", "time", "wrong")
	gopts := distgraph.Options{Symmetrize: true}
	for _, fe := range []int{1, 8, 64, 1 << 30} {
		e := newEnv(am.New(4, am.WithThreads(2)), n, edges, gopts, PaperPlan())
		c := algorithms.NewCC(e.eng, e.lm)
		c.FlushEvery = fe
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { c.Run(r) })
		})
		claims := int64(n) - c.SearchesStarted()
		conflicts := c.Search.Stats.ModsChanged.Load() - claims
		feStr := itoa(fe)
		if fe == 1<<30 {
			feStr = "inf"
		}
		t.Add(row([]any{feStr, c.SearchesStarted(), claims, conflicts, c.JumpRounds},
			statCells(e.u, "messages"), d, algorithms.WrongPartition(c.Comp.Gather(), want))...)
	}
	return []*harness.Table{t}
}
