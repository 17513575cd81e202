package experiments

import (
	"fmt"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
)

// E18Recovery measures the cost of epoch-granular checkpoint/restart as the
// injected crash rate rises, on both termination detectors. Per detector, the
// first row is the trusted transport (no fault plan, no checkpoints); the
// crashes=0 row enables recovery with no faults, i.e. pure checkpoint
// overhead at every epoch boundary; the remaining rows kill ranks mid-epoch
// (after a handled-message threshold) in successive epochs, forcing that many
// rollback/replay cycles. Δ-stepping SSSP is the workload because its bucket
// loop has the richest epoch structure — every crash lands in a different
// bucket epoch. "wrong" must stay 0 in every row: recovery replays must
// reproduce the fault-free answer exactly.
func E18Recovery(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	const delta = 30
	t := harness.NewTable("E18: checkpoint/recovery overhead vs crash rate (Δ-stepping SSSP, 4 ranks x 2 threads)",
		"detector", "injected", "crashes", "aborts", "recoveries", "checkpoints", "messages", "envelopes", "time", "wrong")
	// Crash schedule pool: one mid-epoch crash per bucket epoch, rotating
	// over the non-zero ranks. Row k injects the first k of these.
	pool := []am.Crash{
		{Rank: 1, Epoch: 0, AfterHandled: 5},
		{Rank: 2, Epoch: 1, AfterHandled: 5},
		{Rank: 3, Epoch: 2, AfterHandled: 5},
		{Rank: 1, Epoch: 3, AfterHandled: 5},
	}
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		run := func(injected int, plan *am.FaultPlan, recovery bool) {
			opts := []am.Option{am.WithThreads(2), am.WithCoalesce(64), am.WithDetector(det), am.WithFaultPlan(plan)}
			if recovery {
				opts = append(opts, am.WithRecovery())
			}
			e := newEnv(am.New(4, opts...), n, edges, defaultGOpts(), PaperPlan())
			s := algorithms.NewSSSP(e.eng)
			s.UseDelta(e.u, delta)
			var err error
			d := harness.Time(func() {
				err = e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: E18 run failed: %v", err))
			}
			label := "-"
			if plan != nil {
				label = itoa(injected)
			}
			t.Add(row([]any{det, label},
				statCells(e.u, "crashes", "aborts", "recoveries", "checkpoints",
					"messages", "envelopes"),
				d, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
		}
		run(0, nil, false)
		for k := 0; k <= len(pool); k++ {
			plan := &am.FaultPlan{
				Seed:    harness.DeriveSeed(sc.Seed, fmt.Sprintf("e18/%s/crashes=%d", det, k)),
				Crashes: append([]am.Crash(nil), pool[:k]...),
			}
			run(k, plan, true)
		}
	}
	return []*harness.Table{t}
}
