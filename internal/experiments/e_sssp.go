package experiments

import (
	"fmt"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
)

// E1Strategies reproduces Fig. 1's comparison: the fixed-point SSSP performs
// more (wasted) relaxations than Δ-stepping, whose work profile and epoch
// count vary with Δ; both share the same relax pattern.
func E1Strategies(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E1: SSSP strategies (RMAT scale "+itoa(sc.RMATScale)+", "+itoa(len(edges))+" edges)",
		"strategy", "delta", "bucket-epochs", "relax-attempts", "relax-success", "messages", "time", "wrong")
	run := func(name string, delta int64, mk func(u *am.Universe, s *algorithms.SSSP)) {
		e := newEnv(am.New(4, am.WithThreads(2)), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		mk(e.u, s)
		var dur string
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		dur = d.String()
		attempts := s.Relax.Stats.TestsTrue.Load() + s.Relax.Stats.TestsFalse.Load()
		deltaStr := "-"
		if delta > 0 {
			deltaStr = fmt.Sprint(delta)
		}
		t.Add(row([]any{name, deltaStr, s.BucketEpochs(), attempts, s.Relax.Stats.ModsChanged.Load()},
			statCells(e.u, "messages"), dur, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	run("fixed_point", 0, func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
	for _, delta := range []int64{1, 8, 32, 128, 512, 1 << 40} {
		run("delta", delta, func(u *am.Universe, s *algorithms.SSSP) { s.UseDelta(u, delta) })
	}
	run("delta-distributed", 32, func(u *am.Universe, s *algorithms.SSSP) { s.UseDeltaDistributed(u, 32, 2) })
	return []*harness.Table{t}
}

// E5Coalescing sweeps the coalescing factor (§IV: "coalescing greatly
// improves performance when large amounts of messages are sent").
func E5Coalescing(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E5: coalescing factor (fixed-point SSSP)",
		"coalesce", "messages", "envelopes", "bytes", "time", "wrong")
	for _, cs := range []int{1, 4, 16, 64, 256, 1024} {
		e := newEnv(am.New(4, am.WithThreads(2), am.WithCoalesce(cs)), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{cs}, statCells(e.u, "messages", "envelopes", "bytes"),
			d, checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}

// E6Reduction measures the reduction cache (§IV: "caching allows to avoid
// unnecessary message sends ... in algorithms that produce potentially large
// amounts of repetitive work") on the hand-written SSSP, which combines the
// offers of one delivered batch (its naive form: one expansion per improving
// delivery, the repetitive work the cache is for),
// and beside it the pattern engine's two ways of not doing repetitive work:
// the send-side filter and coalesced re-invocation.
func E6Reduction(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E6: reduction cache (hand-written AM++ SSSP)",
		"cache", "accepted", "suppressed", "handlers", "envelopes", "time", "wrong")
	for _, cached := range []bool{false, true} {
		u := am.New(4, am.WithThreads(2), am.WithCoalesce(256))
		g := buildGraph(u, n, edges, defaultGOpts())
		h := algorithms.NewHandSSSP(u, g).Naive()
		if cached {
			h.WithReductionCache()
		}
		d := harness.Time(func() {
			u.Run(func(r *am.Rank) { h.Run(r, 0) })
		})
		cells := statCells(u, "accepted", "handlers", "envelopes")
		t.Add(onOff[cached], cells[0], h.Suppressed(), cells[1], cells[2],
			d, checkSSSP(h.Dist.Gather(), n, edges, 0))
	}

	// The pattern engine's counterpart (PlanOptions.Filter): the same machine,
	// every hop a message (Direct off). Where the cache merges relaxations
	// that one handler call makes, the filter declines to send one
	// that cannot beat what the rank already offered the vertex this epoch.
	pt := harness.NewTable("E6b: send-side filter (pattern SSSP, fixed point, Direct off)",
		"filter", "messages", "filtered", "handlers", "envelopes", "time", "wrong")
	for _, filter := range []bool{false, true} {
		popts := PaperPlan()
		popts.Filter = filter
		e := newEnv(am.New(4, am.WithThreads(2), am.WithCoalesce(256)), n, edges, defaultGOpts(), popts)
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		cells := statCells(e.u, "messages", "handlers", "envelopes")
		pt.Add(onOff[filter], cells[0], s.Relax.Stats.FilteredHops.Load(), cells[1], cells[2],
			d, checkSSSP(s.Dist.Gather(), n, edges, 0))
	}

	// Coalesced re-invocation (PlanOptions.Coalesce), same machine, every hop
	// a message and no filter: fixed_point mails a re-run of an improved
	// vertex only when none is waiting to start, so a vertex that improves k
	// times before its re-run starts expands its edges once, not k times.
	ct := harness.NewTable("E6c: coalesced re-invocation (pattern SSSP and BFS, fixed point, Direct off)",
		"algorithm", "coalesce", "invocations", "items", "messages", "time", "wrong")
	for _, algo := range []string{"sssp", "bfs"} {
		for _, coalesce := range []bool{false, true} {
			popts := PaperPlan()
			popts.Coalesce = coalesce
			e := newEnv(am.New(4, am.WithThreads(2), am.WithCoalesce(256)), n, edges, defaultGOpts(), popts)
			act, run, answer := patternSolver(e, algo)
			d := harness.Time(func() { e.u.Run(run) })
			ct.Add(algo, onOff[coalesce], act.Stats.Invocations.Load(), act.Stats.Items.Load(),
				statCells(e.u, "messages")[0], d, checkAlgo(algo, answer(), n, edges))
		}
	}
	return []*harness.Table{t, pt, ct}
}

// E7Scaling sweeps ranks × handler threads (strong scaling shape over the
// simulated machine), as shipped — single-word hops between co-resident ranks
// applied in place — and with Direct off, where every hop is a message.
func E7Scaling(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	// scale times run at every (ranks, threads) under both plans and adds
	// one row per configuration; speedups are against each plan's own 1x1.
	scale := func(t *harness.Table, configs [][2]int, gopts distgraph.Options, run func(e *env)) {
		var base [2]float64
		for _, rc := range configs {
			var min [2]time.Duration
			for i, popts := range []pattern.PlanOptions{pattern.DefaultPlanOptions(), PaperPlan()} {
				min[i], _ = harness.MinMed(3, func() {
					run(newEnv(am.New(rc[0], am.WithThreads(rc[1])), n, edges, gopts, popts))
				})
				if base[i] == 0 {
					base[i] = float64(min[i])
				}
			}
			t.Add(rc[0], rc[1], min[0], harness.Ratio(base[0], float64(min[0])),
				min[1], harness.Ratio(base[1], float64(min[1])))
		}
	}
	sssp := harness.NewTable("E7a: strong scaling — fixed-point SSSP",
		"ranks", "threads", "time", "speedup", "time(direct off)", "speedup(direct off)")
	scale(sssp, [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {8, 2}}, defaultGOpts(), func(e *env) {
		s := algorithms.NewSSSP(e.eng)
		e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
	})
	cc := harness.NewTable("E7b: strong scaling — CC parallel search",
		"ranks", "threads", "time", "speedup", "time(direct off)", "speedup(direct off)")
	ugopts := defaultGOpts()
	ugopts.Symmetrize = true
	scale(cc, [][2]int{{1, 1}, {2, 2}, {4, 2}, {8, 2}}, ugopts, func(e *env) {
		c := algorithms.NewCC(e.eng, e.lm)
		c.FlushEvery = 64
		e.u.Run(func(r *am.Rank) { c.Run(r) })
	})
	return []*harness.Table{sssp, cc}
}

// E8Termination compares the shared-counter detector against the
// four-counter control-message protocol, for plain epochs (fixed point) and
// try_finish-driven distributed Δ-stepping.
func E8Termination(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E8: termination detection",
		"workload", "detector", "ctrl-msgs", "td-waves", "time", "wrong")
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		e := newEnv(am.New(4, am.WithThreads(2), am.WithDetector(det)), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{"fixed_point", det.String()}, statCells(e.u, "ctrl-msgs", "td-waves"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		e := newEnv(am.New(4, am.WithThreads(2), am.WithDetector(det)), n, edges, defaultGOpts(), PaperPlan())
		s := algorithms.NewSSSP(e.eng)
		s.UseDeltaDistributed(e.u, 64, 2)
		d := harness.Time(func() {
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
		})
		t.Add(row([]any{"delta-dist(try_finish)", det.String()}, statCells(e.u, "ctrl-msgs", "td-waves"), d,
			checkSSSP(s.Dist.Gather(), n, edges, 0))...)
	}
	return []*harness.Table{t}
}

// E9Abstraction compares pattern-engine SSSP/BFS against the hand-written
// AM++ versions: same results. As shipped the engine sends a fraction of the
// messages, because the relax hop is a CAS on the owner's shard, not a mail
// item. The two like-for-like pairs measure interpretation cost: with Direct
// and Filter off the engine and the hand-written code have the same message
// shape (one relax per edge expanded, one expansion per vertex however often
// it improved meanwhile); PaperPlan and the naive hand-written form are the
// paper's shape, one expansion per improvement.
func E9Abstraction(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E9: abstraction overhead (pattern engine vs hand-written AM++)",
		"algorithm", "impl", "messages", "handlers", "time", "wrong")
	machine := func() *am.Universe { return am.New(4, am.WithThreads(2)) }
	mailed := pattern.DefaultPlanOptions()
	mailed.Direct, mailed.Filter = false, false
	rows := []struct {
		impl        string
		popts       pattern.PlanOptions // the engine's plan; unused by the hand-written rows
		hand, naive bool
	}{
		{impl: "pattern", popts: pattern.DefaultPlanOptions()},
		{impl: "pattern (direct, filter off)", popts: mailed},
		{impl: "hand-written", hand: true},
		{impl: "pattern (paper plan)", popts: PaperPlan()},
		{impl: "hand-written (naive)", hand: true, naive: true},
	}
	for _, algo := range []string{"sssp", "bfs"} {
		for _, rw := range rows {
			var u *am.Universe
			var run func(r *am.Rank)
			var answer func() []int64
			switch {
			case !rw.hand:
				e := newEnv(machine(), n, edges, defaultGOpts(), rw.popts)
				u = e.u
				_, run, answer = patternSolver(e, algo)
			case algo == "sssp":
				u = machine()
				h := algorithms.NewHandSSSP(u, buildGraph(u, n, edges, defaultGOpts()))
				if rw.naive {
					h.Naive()
				}
				run, answer = func(r *am.Rank) { h.Run(r, 0) }, h.Dist.Gather
			default:
				u = machine()
				h := algorithms.NewHandBFS(u, buildGraph(u, n, edges, defaultGOpts()))
				if rw.naive {
					h.Naive()
				}
				run, answer = func(r *am.Rank) { h.Run(r, 0) }, h.Level.Gather
			}
			d := harness.Time(func() { u.Run(run) })
			t.Add(row([]any{algo, rw.impl}, statCells(u, "messages", "handlers"), d,
				checkAlgo(algo, answer(), n, edges))...)
		}
	}
	return []*harness.Table{t}
}

// patternSolver binds the pattern engine's fixed-point SSSP ("sssp") or BFS
// ("bfs") on e: the bound action, the SPMD body that solves from vertex 0, and
// the answer.
func patternSolver(e *env, algo string) (act *pattern.BoundAction, run func(r *am.Rank), answer func() []int64) {
	if algo == "sssp" {
		s := algorithms.NewSSSP(e.eng)
		return s.Relax, func(r *am.Rank) { s.Run(r, 0) }, s.Dist.Gather
	}
	b := algorithms.NewBFS(e.eng)
	return b.Visit, func(r *am.Rank) { b.Run(r, 0) }, b.Level.Gather
}

// checkAlgo counts the labels of an "sssp" or "bfs" answer from vertex 0 that
// differ from the sequential reference's.
func checkAlgo(algo string, got []int64, n int, edges []distgraph.Edge) int {
	if algo == "sssp" {
		return checkSSSP(got, n, edges, 0)
	}
	return checkBFS(got, n, edges, 0)
}
