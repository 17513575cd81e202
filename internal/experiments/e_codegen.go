package experiments

import (
	"fmt"
	"slices"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
	"declpat/internal/ssspgen"
)

// e14Rounds is how many rounds E14 times after its warm-up round: one solve
// of each implementation per round.
const e14Rounds = 101

// E14Codegen completes the abstraction-cost story of E9 with the paper's §VI
// future work realized: the same SSSP run three ways — interpretive pattern
// engine, translator-generated code, and hand-written messaging. Generated
// code should close (most of) the gap to hand-written while being derived
// mechanically from the declarative pattern.
//
// The three share one universe and one graph, and solve in rounds: one solve
// each per round, the order rotating from round to round, so whatever the
// host does falls on all three alike. The table gives each its median solve
// and its ratio to the generated code's solve of the same round — the median
// of those per-round ratios with their quartiles.
func E14Codegen(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E14: pattern translator (generated code) vs engine vs hand-written",
		"impl", "messages", "handlers", "time", "vs generated", "quartiles", "wrong")
	u := am.New(4, am.WithThreads(2))
	benchTrack(u)
	d := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(d, edges, defaultGOpts())
	s := algorithms.NewSSSP(pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), PaperPlan()))
	dist := pmap.NewVertexWord(d, pattern.Inf)
	relax := ssspgen.NewRelax(u, g, dist, pmap.WeightMap(g))
	relax.SetWork(func(r *am.Rank, v distgraph.Vertex) { relax.InvokeAsync(r, v) })
	h := algorithms.NewHandSSSP(u, g).Naive() // the paper's shape, like PaperPlan beside it
	const gen = 1                             // the generated code's index in impls
	impls := []struct {
		name   string
		solve  func(r *am.Rank)
		answer func() []int64
	}{
		{"engine (interpretive)", func(r *am.Rank) { s.Run(r, 0) }, s.Dist.Gather},
		{"generated (translator)", func(r *am.Rank) {
			dist.Fill(r.ID(), pattern.Inf)
			if g.Owner(0) == r.ID() {
				dist.Set(r.ID(), 0, 0)
			}
			r.Barrier()
			r.Epoch(func(*am.Epoch) {
				if g.Owner(0) == r.ID() {
					relax.Invoke(r, 0)
				}
			})
		}, dist.Gather},
		{"hand-written", func(r *am.Rank) { h.Run(r, 0) }, h.Dist.Gather},
	}
	want := seq.Dijkstra(n, edges, 0)
	secs := make([][]float64, len(impls)) // [impl][round]
	msgs := make([][]float64, len(impls))
	handlers := make([][]float64, len(impls))
	wrong := make([]int, len(impls))
	err := u.Run(func(r *am.Rank) {
		for round := -1; round < e14Rounds; round++ { // round -1 warms up
			for k := range impls {
				i := (max(round, 0) + k) % len(impls)
				r.Barrier()
				var s0 am.Snapshot
				var t0 time.Time
				if r.ID() == 0 {
					s0, t0 = u.Stats.Snapshot(), time.Now()
				}
				impls[i].solve(r)
				r.Barrier()
				// The others wait in the next round's barrier while rank 0
				// reads the solve's counters and checks its answer.
				if r.ID() == 0 && round >= 0 {
					dt := time.Since(t0)
					s1 := u.Stats.Snapshot()
					secs[i] = append(secs[i], dt.Seconds())
					msgs[i] = append(msgs[i], float64(s1.MsgsSent-s0.MsgsSent))
					handlers[i] = append(handlers[i], float64(s1.HandlersRun-s0.HandlersRun))
					wrong[i] += algorithms.CountWrong(impls[i].answer(), want)
				}
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: E14: %v", err))
	}
	for i, im := range impls {
		ratios := make([]float64, e14Rounds)
		for round := range ratios {
			ratios[round] = secs[i][round] / secs[gen][round]
		}
		q1, med, q3 := quartiles(ratios)
		_, m, _ := quartiles(secs[i])
		_, ms, _ := quartiles(msgs[i])
		_, hs, _ := quartiles(handlers[i])
		t.Add(im.name, int64(ms), int64(hs), time.Duration(m*float64(time.Second)),
			fmt.Sprintf("%.2fx", med), fmt.Sprintf("%.2f-%.2f", q1, q3), wrong[i])
	}
	return []*harness.Table{t}
}

// quartiles returns the lower quartile, the median and the upper quartile of
// xs, each by linear interpolation between the nearest ranks.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 == len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
