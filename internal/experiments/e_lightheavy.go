package experiments

import (
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
)

// E12LightHeavy measures the Δ-stepping light/heavy edge split the paper
// cites as a further optimization (§II-A), enabled by the planner's
// early-exit evaluation of the entry-local weight guard: heavy edges send no
// relax messages during the light phases.
func E12LightHeavy(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E12: Δ-stepping light/heavy split",
		"variant", "delta", "bucket-epochs", "messages", "time", "wrong")
	for _, delta := range []int64{16, 64, 256} {
		{
			e := newEnv(am.New(4, am.WithThreads(2)), n, edges, defaultGOpts(), PaperPlan())
			s := algorithms.NewSSSP(e.eng)
			s.UseDelta(e.u, delta)
			d := harness.Time(func() { e.u.Run(func(r *am.Rank) { s.Run(r, 0) }) })
			t.Add(row([]any{"plain", delta, s.BucketEpochs()}, statCells(e.u, "messages"), d,
				checkSSSP(s.Dist.Gather(), n, edges, 0))...)
		}
		{
			e := newEnv(am.New(4, am.WithThreads(2)), n, edges, defaultGOpts(), PaperPlan())
			s := algorithms.NewSSSP(e.eng)
			s.UseDeltaLightHeavy(e.u, delta)
			d := harness.Time(func() { e.u.Run(func(r *am.Rank) { s.Run(r, 0) }) })
			t.Add(row([]any{"light/heavy", delta, s.BucketEpochs()}, statCells(e.u, "messages"), d,
				checkSSSP(s.Dist.Gather(), n, edges, 0))...)
		}
	}
	return []*harness.Table{t}
}
