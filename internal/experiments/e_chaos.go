package experiments

import (
	"fmt"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
)

// E16Chaos measures the cost of the reliable-delivery protocol (acks,
// sequence numbers, retransmission) as the injected drop rate rises. The
// first row is the trusted transport (FaultPlan nil — the zero-overhead
// default, which ships references); the drop=0% row is the reliable
// protocol with no faults, i.e. pure protocol overhead: sequence numbers,
// acks, and the codec's encode and decode of every envelope that crosses a
// link; the remaining rows add dropped envelopes (with duplication and
// delay/reordering held at 10% each) that the protocol must recover. "wrong"
// must stay 0 in every row: results are bit-identical to the fault-free run
// regardless of drop rate.
func E16Chaos(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E16: fault overhead vs drop rate (fixed-point SSSP, 4 ranks x 2 threads)",
		"transport", "drop", "messages", "envelopes", "acks", "dropped", "retransmits", "dup-suppressed", "ctrl-msgs", "bytes", "time", "wrong")
	run := func(name string, plan *am.FaultPlan) {
		e := newEnv(am.New(4, am.WithThreads(2), am.WithCoalesce(64), am.WithFaultPlan(plan)),
			n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		drop := "-"
		if plan != nil {
			drop = fmt.Sprintf("%g%%", 100*plan.Drop)
		}
		t.Add(row([]any{name, drop},
			statCells(e.u, "messages", "envelopes", "acks", "dropped",
				"retransmits", "dup-suppressed", "ctrl-msgs", "bytes"),
			d, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	run("trusted", nil)
	for _, drop := range []float64{0, 0.01, 0.05, 0.20} {
		plan := &am.FaultPlan{
			Seed: harness.DeriveSeed(sc.Seed, fmt.Sprintf("e16/drop=%g", drop)),
			Drop: drop,
		}
		if drop > 0 {
			plan.Dup, plan.Delay = 0.10, 0.10
		}
		run("reliable", plan)
	}
	return []*harness.Table{t}
}
