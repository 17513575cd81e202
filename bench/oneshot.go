package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"declpat"
	"declpat/internal/am"
)

// oneshotSpec describes a workload of the paper's own user: someone who runs
// one algorithm to a verified answer. Each instance is a fresh universe that
// solves repeatedly, barrier to barrier, inside one resident Universe.Run.
type oneshotSpec struct {
	name       string
	algo       string
	scale      int
	quickScale int
	unix       bool
	instances  int
	// sloMs is the latency limit a solve must meet to count in slo_ok_ratio:
	// a round figure about six times the recorded baseline median, so the
	// ratio reads 1 through the host's own slow spells (up to twice slower)
	// and drops when solves slow down severalfold or start to fail.
	sloMs float64
}

var (
	oneshotChanSSSP = oneshotSpec{name: "oneshot-chan-sssp", algo: algoSSSP, scale: 12, quickScale: 10, instances: 20, sloMs: 250}
	oneshotUnixBFS  = oneshotSpec{name: "oneshot-unix-bfs", algo: algoBFS, scale: 13, quickScale: 10, unix: true, instances: 20, sloMs: 150}
)

// solver is one bound algorithm instance: a collective solve, a gather of the
// answer, and the bound action whose counters price the pattern layer.
type solver struct {
	run    func(r *declpat.Rank, src declpat.Vertex)
	gather func() []int64
	action *declpat.BoundAction
}

func bindSolver(eng *declpat.Engine, algo string) solver {
	if algo == algoSSSP {
		s := declpat.NewSSSP(eng)
		return solver{s.Run, s.Dist.Gather, s.Relax}
	}
	b := declpat.NewBFS(eng)
	return solver{b.Run, b.Level.Gather, b.Visit}
}

// universeOpts are the options every instance of every workload shares: one
// handler thread per rank, the workload's transport, and — only in a traced
// instance — the program's own timing telemetry.
func universeOpts(unixDir string, traced bool) []declpat.Option {
	opts := []declpat.Option{declpat.WithThreads(threads)}
	if unixDir != "" {
		opts = append(opts, declpat.WithTransport(declpat.SockTransport(declpat.SockOptions{Network: "unix", Dir: unixDir})))
	}
	if traced {
		opts = append(opts, declpat.WithTiming())
	}
	return opts
}

// actionCounts is a plain copy of the bound action's counters.
type actionCounts struct{ items, attempts, changed float64 }

func readAction(a *declpat.BoundAction) actionCounts {
	return actionCounts{
		items:    float64(a.Stats.Items.Load()),
		attempts: float64(a.Stats.TestsTrue.Load() + a.Stats.TestsFalse.Load()),
		changed:  float64(a.Stats.ModsChanged.Load()),
	}
}

// built is a universe with a graph and an engine on it, the part of set-up
// every in-process instance shares.
type built struct {
	u   *declpat.Universe
	g   *declpat.Graph
	eng *declpat.Engine
}

// buildInstance performs the set-up calls of an in-process instance, each in
// its span under parent, and records the per-layer set-up timings. The graph
// is regenerated from the seed every time: set-up is measured once per
// instance and reported as the median.
func buildInstance(in *inputs, unixDir string, rec *recorder, tr *tracer, op int64, parent int) built {
	var b built
	traced := tr != nil
	var edges []declpat.Edge
	t := time.Now()
	tr.call("gen.rmat", op, parent, func() { _, edges = declpat.RMAT(in.scale, edgeFactor, weights, in.seed) })
	rec.sample("gen.rmat_s", time.Since(t).Seconds())

	var m0, m1 runtime.MemStats
	if traced {
		runtime.GC()
		runtime.GC() // twice: the first cycle only queues pooled buffers for release
		runtime.ReadMemStats(&m0)
	}
	dist := declpat.NewBlockDist(in.n, ranks)
	t = time.Now()
	tr.call("distgraph.build", op, parent, func() { b.g = declpat.BuildGraph(dist, edges, declpat.GraphOptions{}) })
	rec.sample("distgraph.build_s", time.Since(t).Seconds())
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		rec.sample("distgraph.bytes_per_edge", ratio(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), float64(len(edges))))
	}

	tr.call("am.new", op, parent, func() { b.u = declpat.New(ranks, universeOpts(unixDir, traced)...) })
	tr.call("pattern.new_engine", op, parent, func() {
		b.eng = declpat.NewEngine(b.u, b.g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
		if unixDir != "" {
			b.eng.MsgType().WithWire() // sockets need the fixed wire codec
		}
	})
	return b
}

// runOneshot runs every instance of a one-shot workload.
func runOneshot(spec oneshotSpec, cfg config) (*result, error) {
	scale := spec.scale
	if cfg.quick {
		scale = spec.quickScale
	}
	instances := cfg.instances(spec.instances)
	run := newRun(cfg, instances)
	var in *inputs // the last instance's, for the probes
	for i := 0; i < instances; i++ {
		rec, tr := run.instance(i)
		var err error
		if in, err = makeInputs(scale, instanceSeed(cfg.seed, i), cfg.pool(), spec.algo); err != nil {
			return nil, err
		}
		in.recordSeq(rec, spec.algo)
		unixDir, cleanup, err := sockDir(cfg, spec.unix, fmt.Sprintf("sock%d", i))
		if err != nil {
			return nil, err
		}
		resetPeakRSS()
		oneshotInstance(spec, in, i, run.perInstance, unixDir, rec, tr)
		rec.sample("rss_mb", peakRSSMB("self"))
		cleanup()
	}
	res := run.finish(spec.name)
	pl := run.layerRecorder()
	seq := median(pl.get("seq_ms"))
	solveP50 := pl.p("latency_ms", 0.5)
	solves := float64(len(pl.get("latency_ms")))
	res.set("algorithms.seq_ratio", ratio(solveP50, seq))
	res.set("algorithms.mteps", ratio(pl.total("reach_edges"), 1e6*pl.total("measured_s")))
	res.set("pattern.ns_per_item", ratio(1e6*pl.total("am.busy_ms"), pl.total("pattern.items")))
	res.set("pattern.msgs_per_edge", ratio(pl.total("am.msgs"), pl.total("reach_edges")))
	res.set("strategy.useful_ratio", ratio(pl.total("pattern.changed"), pl.total("pattern.attempts")))
	amPerOp(res, pl, solves)
	res.phaseBaseMs = mean(pl.get("latency_ms"))
	if cfg.trace {
		probeSubstrate(res, cfg, in, spec.unix)
		probeOneshot(res, cfg, spec, in)
	}
	return res, nil
}

// oneshotInstance builds one universe, warms it with one solve, and solves
// until budget is spent. A Universe.Run error is one failed operation; the
// samples taken before it stand, and the caller moves on to a fresh instance.
func oneshotInstance(spec oneshotSpec, in *inputs, idx int, budget time.Duration, unixDir string, rec *recorder, tr *tracer) {
	traced := tr != nil
	setupOp := tr.newOp()
	t0 := time.Now()
	setup := tr.beginAt("setup", setupOp, -1, t0)
	b := buildInstance(in, unixDir, rec, tr, setupOp, setup)
	var s solver
	t := time.Now()
	tr.call("pattern.bind", setupOp, setup, func() { s = bindSolver(b.eng, spec.algo) })
	rec.sample("pattern.bind_ms", ms(time.Since(t)))

	// pi is the pool index of the solve in progress: rank 0 draws it before
	// each collective and every rank reads it after. start and end bracket
	// the measuring; end stays zero if the run fails first.
	var pi int
	var start, end time.Time
	warmSrc := in.pool[in.next()]
	connect := tr.begin("am.connect", setupOp, setup)
	tRun := time.Now()
	err := b.u.Run(func(r *declpat.Rank) {
		lead := r.ID() == 0
		r.Barrier()
		warm := -1
		if lead {
			tr.end(connect)
			rec.sample("am.connect_ms", ms(time.Since(tRun)))
			warm = tr.begin("warmup", setupOp, setup)
		}
		s.run(r, warmSrc)
		r.Barrier()
		var act0 actionCounts
		var ph0 map[string]declpat.HistSnapshot
		if lead {
			start = time.Now()
			tr.endAt(warm, start)
			tr.endAt(setup, start)
			rec.sample("setup_s", start.Sub(t0).Seconds())
			act0 = readAction(s.action)
			ph0 = b.u.Phases()
		}
		nSolves := 0
		for {
			// Rank 0 reads the counters and draws the next source while the
			// others wait in the collective, so a solve's deltas are exact
			// and every rank sees the same source after it.
			stop := false
			var c0 am.Snapshot
			var m0 runtime.MemStats
			if lead {
				stop = time.Since(start) >= budget
				if !stop {
					pi = in.next()
				}
				c0 = b.u.Stats.Snapshot()
				if traced {
					runtime.ReadMemStats(&m0)
				}
			}
			if r.AllReduceOr(stop) {
				break
			}
			var tSolve time.Time
			sp := -1
			if lead {
				tSolve = time.Now()
				sp = tr.beginAt("solve", tr.newOp(), -1, tSolve)
			}
			s.run(r, in.pool[pi])
			r.Barrier()
			if lead {
				solved := time.Now()
				tr.endAt(sp, solved)
				d := b.u.Stats.Snapshot().Sub(c0)
				if traced {
					var m1 runtime.MemStats
					runtime.ReadMemStats(&m1)
					rec.add("am.allocs", float64(m1.Mallocs-m0.Mallocs))
					rec.add("am.alloc_bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
				}
				lat := ms(solved.Sub(tSolve))
				ok := in.matches(spec.algo, pi, s.gather())
				rec.op(false, !ok)
				rec.sample("latency_ms", lat)
				rec.sample("latency_x_seq", in.xSeq(spec.algo, lat))
				rec.sample(instSeries(idx), lat)
				rec.add("am.busy_ms", lat)
				if ok {
					rec.add("verified", 1)
					if lat <= spec.sloMs {
						rec.add("slo_ok", 1)
					}
				}
				rec.add("reach_edges", in.reachEdges[pi])
				addCounters(rec, d)
				nSolves++
			}
		}
		if lead {
			end = time.Now()
			act := readAction(s.action)
			rec.add("pattern.items", act.items-act0.items)
			rec.add("pattern.attempts", act.attempts-act0.attempts)
			rec.add("pattern.changed", act.changed-act0.changed)
			addPhases(rec, ph0, b.u.Phases(), nSolves)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: instance %d: Universe.Run: %v\n", spec.name, idx, err)
		rec.op(true, false)
		end = time.Now()
	}
	if !start.IsZero() {
		rec.add("measured_s", end.Sub(start).Seconds())
	}
	if traced {
		addTimingHists(rec, b.u.Metrics())
	}
}

// addCounters accumulates one operation's substrate counter deltas.
func addCounters(rec *recorder, d am.Snapshot) {
	rec.add("am.msgs", float64(d.MsgsSent))
	rec.add("am.envelopes", float64(d.Envelopes))
	rec.add("am.wire_bytes", float64(d.WireBytes))
	rec.add("am.retransmits", float64(d.Retransmits))
	rec.add("am.epochs", float64(d.Epochs))
	rec.add("am.link_deaths", float64(d.LinkDeaths))
	rec.add("am.decode_errors", float64(d.DecodeErrors))
	rec.add("am.query_mismatches", float64(d.QueryMismatches))
}

// addPhases accumulates the program's phase timers (present only under
// WithTiming) between two snapshots: total nanoseconds per phase summed over
// ranks, to be divided by ranks × operations.
func addPhases(rec *recorder, before, after map[string]declpat.HistSnapshot, ops int) {
	if after == nil {
		return
	}
	for _, name := range []string{"kernel", "barrier", "collect"} {
		rec.add("am.phase."+name+"_ns", float64(after[name].Sum-before[name].Sum))
	}
	rec.add("am.phase.ops", float64(ops))
}

// addTimingHists records the medians of the program's handler-latency and
// ack round-trip histograms for one instance (bucketed, so coarse).
func addTimingHists(rec *recorder, m declpat.Metrics) {
	var busiest declpat.HistSnapshot
	for _, t := range m.Types {
		if t.HandlerLatency.Count > busiest.Count {
			busiest = t.HandlerLatency
		}
	}
	if busiest.Count > 0 {
		rec.sample("am.handler_us_p50", float64(busiest.Quantile(0.5))/1e3)
	}
	if m.AckRTT.Count > 0 {
		rec.sample("am.ack_rtt_us_p50", float64(m.AckRTT.Quantile(0.5))/1e3)
		rec.sample("am.ack_rtt_us_p90", float64(m.AckRTT.Quantile(0.9))/1e3)
	}
}

// amPerOp turns the accumulated substrate counters into the am layer's
// per-operation rows. am.busy_ms is the time the universe spent on the counted
// operations: the solve spans, or the scheduling rounds of a service.
func amPerOp(res *result, pl *recorder, ops float64) {
	msgs, busy := pl.total("am.msgs"), pl.total("am.busy_ms")
	res.set("am.msgs", ratio(msgs, ops))
	res.set("am.envelopes", ratio(pl.total("am.envelopes"), ops))
	res.set("am.msgs_per_envelope", ratio(msgs, pl.total("am.envelopes")))
	res.set("am.wire_bytes_per_msg", ratio(pl.total("am.wire_bytes"), msgs))
	res.set("am.retransmits", ratio(pl.total("am.retransmits"), ops))
	res.set("am.retransmit_ratio", ratio(pl.total("am.retransmits"), pl.total("am.envelopes")))
	res.set("am.allocs_per_msg", ratio(pl.total("am.allocs"), msgs))
	res.set("am.alloc_bytes_per_msg", ratio(pl.total("am.alloc_bytes"), msgs))
	res.set("am.ns_per_msg", ratio(1e6*busy, msgs))
	res.set("am.link_deaths", pl.total("am.link_deaths"))
	res.set("am.decode_errors", pl.total("am.decode_errors"))
	res.set("am.query_mismatches", pl.total("am.query_mismatches"))
	res.set("am.handler_us_p50", median(pl.get("am.handler_us_p50")))
	res.set("am.ack_rtt_us_p50", median(pl.get("am.ack_rtt_us_p50")))
	res.set("am.ack_rtt_us_p90", median(pl.get("am.ack_rtt_us_p90")))
	rankOps := ranks * pl.total("am.phase.ops")
	kernel := ratio(pl.total("am.phase.kernel_ns"), 1e6*rankOps)
	barrier := ratio(pl.total("am.phase.barrier_ns"), 1e6*rankOps)
	res.set("am.barrier_share", ratio(pl.total("am.phase.barrier_ns"), 1e6*ranks*busy))
	res.set("am.phase.kernel_ms", kernel)
	res.set("am.phase.barrier_ms", barrier)
	res.set("am.phase.collect_ms", ratio(pl.total("am.phase.collect_ns"), 1e6*rankOps))
}
