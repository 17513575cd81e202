package experiments

import (
	"fmt"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
	"declpat/internal/obs"
)

// E19Lineage exercises the causal lineage plane end to end.
//
// E19a runs BFS, SSSP, and CC traced with lineage and reconstructs each
// run's critical path — the realized handler→send→handler chain that gated
// the run's quiescence — under both termination detectors and with
// coalescing ablated (CoalesceSize 1). The decomposition separates handler
// execution on the chain from wait (queueing + simulated link latency) and
// the quiescence tail after the last handler; "path/span" is how much of the
// run's wall time the chain explains. Coalescing trades chain wait for
// fewer envelopes; the four-counter detector pays its control waves in the
// tail.
//
// E19b is the BFS chain-depth histogram: how many handler invocations sit
// at each causal depth. For level-synchronous BFS the histogram's depth
// reach tracks the traversal depth of the graph, and its mass shows where
// the frontier peaked — read directly off the trace, no algorithm knowledge
// used.
//
// E19c prices the lineage plane the way E17 prices the rest of the
// substrate: the same traced BFS with lineage stamped (LineageAuto, the
// traced-run default) vs forced off, repetitions interleaved so machine
// drift cannot bias one row. Lineage also grows the simulated wire format
// by 8 bytes per message, visible in the bytes column.
func E19Lineage(sc Scale) []*harness.Table {
	n, edges := workload(sc)

	runWL := func(name string, opts ...am.Option) (*am.Universe, time.Duration) {
		gopts := defaultGOpts()
		if name == "cc" {
			gopts = distgraph.Options{Symmetrize: true}
		}
		e := newEnv(am.New(4, append(opts, am.WithThreads(2))...), n, edges, gopts, PaperPlan())
		var body func(r *am.Rank)
		switch name {
		case "bfs":
			b := algorithms.NewBFS(e.eng)
			body = func(r *am.Rank) { b.Run(r, 0) }
		case "sssp":
			s := algorithms.NewSSSP(e.eng)
			body = func(r *am.Rank) { s.Run(r, 0) }
		case "cc":
			c := algorithms.NewCC(e.eng, e.lm)
			body = func(r *am.Rank) { c.Run(r) }
		}
		d := harness.Time(func() { e.u.Run(body) })
		return e.u, d
	}

	a := harness.NewTable("E19a: critical-path decomposition (4 ranks x 2 threads, traced)",
		"workload", "detector", "coalesce", "epochs", "handlers", "max-depth",
		"path-exec", "path-wait", "quiesce-tail", "path/span")
	var bfsLineage *obs.Lineage
	for _, wl := range []string{"bfs", "sssp", "cc"} {
		for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
			for _, coalesce := range []int{64, 1} {
				u, _ := runWL(wl, am.WithCoalesce(coalesce), am.WithDetector(det),
					am.WithTiming(), am.WithTraceCapacity(1<<21))
				meta, recs := u.ExportTrace(wl)
				lin := obs.BuildLineage(meta, recs)
				if wl == "bfs" && det == am.DetectorAtomic && coalesce == 64 {
					bfsLineage = lin
				}
				var span, exec, wait, tail int64
				maxDepth := 0
				for _, cp := range lin.CriticalPaths() {
					span += cp.SpanNs
					exec += cp.ExecNs
					wait += cp.WaitNs
					tail += cp.TailNs
					if d := cp.Depth(); d > maxDepth {
						maxDepth = d
					}
				}
				share := "-"
				if span > 0 {
					share = fmt.Sprintf("%.0f%%", 100*float64(exec+wait+tail)/float64(span))
				}
				a.Add(wl, det.String(), coalesce, len(lin.Epochs), lin.Handlers(), maxDepth,
					time.Duration(exec), time.Duration(wait), time.Duration(tail), share)
			}
		}
	}

	b := harness.NewTable("E19b: BFS chain-depth histogram (atomic detector, coalesce 64)",
		"depth", "handlers")
	if bfsLineage != nil {
		depths := map[int]int{}
		maxDepth := 0
		for _, e := range bfsLineage.Epochs {
			for _, node := range e.Nodes {
				depths[node.Depth]++
				if node.Depth > maxDepth {
					maxDepth = node.Depth
				}
			}
		}
		for d := 1; d <= maxDepth; d++ {
			if depths[d] > 0 {
				b.Add(d, depths[d])
			}
		}
	}

	c := harness.NewTable("E19c: lineage overhead (traced BFS, 4 ranks x 2 threads)",
		"config", "messages", "bytes", "min-time", "median", "vs-off")
	configs := []struct {
		name string
		mode am.LineageMode
	}{
		{"tracing, lineage off", am.LineageOff},
		{"tracing + lineage", am.LineageAuto},
	}
	const reps = 5
	us := make([]*am.Universe, len(configs))
	times := make([][]time.Duration, len(configs))
	iter := func(i int) time.Duration {
		u, d := runWL("bfs", am.WithCoalesce(64), am.WithTraceCapacity(1<<21), am.WithLineage(configs[i].mode))
		us[i] = u
		return d
	}
	for i := range configs {
		iter(i) // warmup outside the measurement
	}
	for rep := 0; rep < reps; rep++ {
		for i := range configs {
			times[i] = append(times[i], iter(i))
		}
	}
	var base float64
	for i, conf := range configs {
		ds := times[i]
		for x := 1; x < len(ds); x++ {
			for y := x; y > 0 && ds[y] < ds[y-1]; y-- {
				ds[y], ds[y-1] = ds[y-1], ds[y]
			}
		}
		min, med := ds[0], ds[len(ds)/2]
		if base == 0 {
			base = float64(min)
		}
		c.Add(row([]any{conf.name}, statCells(us[i], "messages", "bytes"),
			min, med, harness.Ratio(float64(min), base))...)
	}
	return []*harness.Table{a, b, c}
}
