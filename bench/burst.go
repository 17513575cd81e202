package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"declpat"
)

// serve-burst: a client of the resident query service, in process. Open loop:
// every burstPeriod a burst of burstWidth BFS and burstWidth SSSP queries is
// submitted by one generator goroutine that never waits for an answer, and
// each query is timed from the instant its burst was due. The width-4+4 burst
// is what exercises admission, same-algorithm fusion and queueing.
const (
	serveBurstName  = "serve-burst"
	serveScale      = 12
	serveQuickScale = 9
	burstPeriod     = 400 * time.Millisecond
	burstWidth      = 4
	burstInstances  = 10
	// burstSLOMs is the limit a query must be answered in, from its due time,
	// to count in slo_ok_ratio: two burst periods. A burst still unanswered
	// when the one after the next is due means a backlog of more than one
	// burst; one period would already trip in the host's own slow spells.
	burstSLOMs = 800
	// queryDeadline is the deadline each request carries; hardTimeout bounds
	// the benchmark's own wait should the service never resolve a ticket.
	queryDeadline = 2 * time.Second
	hardTimeout   = 10 * time.Second
)

func runBurst(cfg config) (*result, error) {
	scale, period := serveScale, burstPeriod
	if cfg.quick {
		scale, period = serveQuickScale, burstPeriod/4
	}
	instances := cfg.instances(burstInstances)
	run := newRun(cfg, instances)
	bursts := max(2, int(run.perInstance/period))
	var in *inputs // the last instance's, for the probes
	for i := 0; i < instances; i++ {
		rec, tr := run.instance(i)
		var err error
		if in, err = makeInputs(scale, instanceSeed(cfg.seed, i), cfg.pool(), algoBFS, algoSSSP); err != nil {
			return nil, err
		}
		in.recordSeq(rec, algoSSSP)
		resetPeakRSS()
		burstInstance(in, i, bursts, period, rec, tr)
		rec.sample("rss_mb", peakRSSMB("self"))
	}
	res := run.finish(serveBurstName)
	pl := run.layerRecorder()
	queries := pl.total("verified")
	res.set("algorithms.seq_ratio", ratio(pl.p("latency_ms", 0.5), median(pl.get("seq_ms"))))
	res.set("algorithms.mteps", ratio(pl.total("reach_edges"), 1e6*pl.total("measured_s")))
	amPerOp(res, pl, queries)
	res.set("diag.bfs_latency_ms_p50", run.plain.p("bfs_latency_ms", 0.5))
	res.set("query.submit_us_p50", pl.p("query.submit_us", 0.5))
	res.set("query.queue_wait_ms_p50", pl.p("query.queue_wait_ms", 0.5))
	res.set("query.queue_wait_ms_p90", pl.p("query.queue_wait_ms", 0.9))
	res.set("query.run_ms_p50", pl.p("query.run_ms", 0.5))
	res.set("query.notify_us_p50", pl.p("query.notify_us", 0.5))
	res.set("query.batch_width_mean", ratio(pl.total("query.batch_sum"), pl.total("query.batches")))
	res.set("query.batch_width_max", quantile(pl.get("query.batch_max"), 1))
	res.set("query.epochs_per_query", ratio(pl.total("am.epochs"), queries))
	res.set("query.rejected", pl.total("query.rejected"))
	res.set("query.expired", pl.total("query.expired"))
	res.set("loadgen.late_ms_p90", pl.p("loadgen.late_ms", 0.9))
	res.set("loadgen.bursts_sent", pl.total("loadgen.bursts"))
	if cfg.trace {
		probeSubstrate(res, cfg, in, false)
		probeQuery(res, cfg, in, pl.p("query.run_ms", 0.5))
	}
	return res, nil
}

// openLoop fires bursts on a fixed schedule — burst b is due at
// start + b·period — whether or not earlier ones were answered. A generator
// that falls behind does not move the schedule: the lateness it reports is
// already inside every latency timed from due.
func openLoop(start time.Time, period time.Duration, bursts int, fire func(b int, due time.Time)) []time.Duration {
	late := make([]time.Duration, bursts)
	for b := range late {
		due := start.Add(time.Duration(b) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[b] = time.Since(due)
		fire(b, due)
	}
	return late
}

// startService sets up one resident query service: the shared instance
// set-up, the service's slot pools (the pattern layer's bind, 17 times), and
// the universe running in the background. stop ends it and reports Serve's
// error.
func startService(in *inputs, rec *recorder, tr *tracer, op int64, parent int) (b built, svc *declpat.QueryService, stop func() error) {
	b = buildInstance(in, "", rec, tr, op, parent)
	t := time.Now()
	tr.call("pattern.bind", op, parent, func() { svc = declpat.NewQueryService(b.eng) })
	rec.sample("pattern.bind_ms", ms(time.Since(t)))
	served := make(chan error, 1)
	go func() { served <- svc.Serve() }()
	return b, svc, func() error {
		svc.Stop()
		return <-served
	}
}

// burstQuery is one member of a burst.
type burstQuery struct {
	algo string
	pi   int // index into the source pool
}

// burstClient submits bursts to one service and records their outcomes.
type burstClient struct {
	svc *declpat.QueryService
	in  *inputs
	rec *recorder
	tr  *tracer
	// inst names the series of this instance's primary latencies.
	inst string
	wg   sync.WaitGroup
}

// submit submits one burst and starts a waiter per admitted query; each
// waiter records the query's outcome against due. wg tracks the waiters.
func (c *burstClient) submit(qs []burstQuery, due time.Time) {
	rec, tr := c.rec, c.tr
	for _, q := range qs {
		op := tr.newOp()
		root := tr.beginAt("query", op, -1, due)
		algo := declpat.QueryBFS
		if q.algo == algoSSSP {
			algo = declpat.QuerySSSP
		}
		t := time.Now()
		sp := tr.beginAt("query.submit", op, root, t)
		ticket, err := c.svc.Submit(declpat.QueryRequest{Algo: algo, Source: c.in.pool[q.pi], Deadline: queryDeadline})
		sent := time.Now()
		tr.endAt(sp, sent)
		rec.sample("query.submit_us", us(sent.Sub(t)))
		if err != nil {
			rec.op(true, false)
			continue
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			wait := tr.beginAt("query.wait", op, root, sent)
			select {
			case <-ticket.Done():
			case <-time.After(hardTimeout):
				ticket.Cancel()
				rec.op(true, false)
				return
			}
			seen := time.Now()
			tr.endAt(wait, seen)
			tr.endAt(root, seen)
			ans, err := ticket.Wait()
			if err != nil {
				rec.op(true, false)
				return
			}
			// The result's own lifecycle timestamps split the wait into
			// spans with real positions: queued, running, and the hand-off
			// from the scheduler to this goroutine.
			for _, part := range []struct {
				name     string
				from, to time.Time
			}{{"query.queue", ans.Queued, ans.Started}, {"query.run", ans.Started, ans.Finished}, {"query.notify", ans.Finished, seen}} {
				tr.endAt(tr.beginAt(part.name, op, wait, part.from), part.to)
			}
			ok := c.in.matches(q.algo, q.pi, ans.Values)
			rec.op(false, !ok)
			lat := ms(seen.Sub(due))
			if q.algo == algoSSSP {
				rec.sample("latency_ms", lat)
				rec.sample("latency_x_seq", c.in.xSeq(algoSSSP, lat))
				rec.sample(c.inst, lat)
			} else {
				rec.sample("bfs_latency_ms", lat)
			}
			if ok {
				rec.add("verified", 1)
				rec.add("reach_edges", c.in.reachEdges[q.pi])
				if lat <= burstSLOMs {
					rec.add("slo_ok", 1)
				}
			}
			rec.sample("query.queue_wait_ms", ms(ans.Started.Sub(ans.Queued)))
			run := ms(ans.Finished.Sub(ans.Started))
			rec.sample("query.run_ms", run)
			// A round runs one BFS and one SSSP batch and ends for all their
			// members together: each member carries its share of the round.
			rec.add("am.busy_ms", run/float64(2*ans.BatchSize))
			rec.sample("query.notify_us", us(seen.Sub(ans.Finished)))
		}()
	}
}

// burstInstance runs one fresh service through a warm-up burst (part of
// set-up: the service is ready once it has answered) and then the schedule.
func burstInstance(in *inputs, idx, bursts int, period time.Duration, rec *recorder, tr *tracer) {
	setupOp := tr.newOp()
	t0 := time.Now()
	setup := tr.beginAt("setup", setupOp, -1, t0)
	b, svc, stop := startService(in, rec, tr, setupOp, setup)

	burst := func() []burstQuery {
		qs := make([]burstQuery, 0, 2*burstWidth)
		for k := 0; k < 2*burstWidth; k++ {
			algo := algoBFS
			if k >= burstWidth {
				algo = algoSSSP
			}
			qs = append(qs, burstQuery{algo, in.next()})
		}
		return qs
	}
	warm := tr.begin("warmup", setupOp, setup)
	warmer := &burstClient{svc: svc, in: in, rec: newRecorder(), inst: "warmup"}
	warmer.submit(burst(), time.Now())
	warmer.wg.Wait()
	start := time.Now()
	tr.endAt(warm, start)
	tr.endAt(setup, start)
	rec.sample("setup_s", start.Sub(t0).Seconds())

	c0, ph0 := b.u.Stats.Snapshot(), b.u.Phases()
	client := &burstClient{svc: svc, in: in, rec: rec, tr: tr, inst: instSeries(idx)}
	late := openLoop(start, period, bursts, func(_ int, due time.Time) { client.submit(burst(), due) })
	client.wg.Wait()
	rec.add("measured_s", time.Since(start).Seconds())
	for _, l := range late {
		rec.sample("loadgen.late_ms", ms(l))
	}
	rec.add("loadgen.bursts", float64(bursts))
	addCounters(rec, b.u.Stats.Snapshot().Sub(c0))
	addPhases(rec, ph0, b.u.Phases(), bursts*2*burstWidth)
	st := svc.Stats()
	rec.add("query.batch_sum", float64(st.BatchSize.Sum))
	rec.add("query.batches", float64(st.BatchSize.Count))
	rec.sample("query.batch_max", float64(st.MaxBatch))
	rec.add("query.rejected", float64(st.Rejected))
	rec.add("query.expired", float64(st.Expired))
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: instance %d: Serve: %v\n", serveBurstName, idx, err)
	}
	if tr != nil {
		addTimingHists(rec, b.u.Metrics())
	}
}

// timeLookups times 1000 in-process point lookups into a finished query's
// retained result, in µs.
func timeLookups(svc *declpat.QueryService, id int64, n int) []float64 {
	var out []float64
	for i := 0; i < 1000; i++ {
		t := time.Now()
		_, err := svc.Value(id, declpat.Vertex(i%n))
		if d := time.Since(t); err == nil {
			out = append(out, us(d))
		}
	}
	return out
}

// probeQuery prices the query plane's fixed costs on a fresh service: queries
// one at a time (fusion width 1) against the fused rounds of the workload and
// against a bare resident solve, and point lookups into a retained result.
func probeQuery(res *result, cfg config, in *inputs, fusedRunMs float64) {
	n := 12
	if cfg.quick {
		n = 3
	}
	_, svc, stop := startService(in, newRecorder(), nil, 0, -1)
	solo := map[string][]float64{}
	var last *declpat.QueryResult
	for i := 0; i <= n; i++ {
		for _, q := range []struct {
			name string
			algo declpat.QueryAlgo
		}{{algoBFS, declpat.QueryBFS}, {algoSSSP, declpat.QuerySSSP}} {
			pi := in.source(i)
			t, err := svc.Submit(declpat.QueryRequest{Algo: q.algo, Source: in.pool[pi], Deadline: queryDeadline})
			if probeFailed(res, "solo submit", err) {
				continue
			}
			ans, err := t.Wait()
			if err == nil && !in.matches(q.name, pi, ans.Values) {
				err = fmt.Errorf("wrong %s answer from source %d", q.name, in.pool[pi])
			}
			if probeFailed(res, "solo query", err) {
				continue
			}
			if i > 0 { // the first of each warms up
				solo[q.name] = append(solo[q.name], ms(ans.Finished.Sub(ans.Started)))
			}
			last = ans
		}
	}
	if last != nil {
		res.set("query.value_us_p50", median(timeLookups(svc, last.ID, in.n)))
	}
	probeFailed(res, "service stop", stop())
	// A round of the workload runs burstWidth BFS and burstWidth SSSP members
	// and ends for all of them together.
	res.set("query.fusion_gain", ratio(burstWidth*(median(solo[algoBFS])+median(solo[algoSSSP])), fusedRunMs))
	resident, _, err := timeSolves(in, algoSSSP, ranks, "", n, func(b built) solver { return bindSolver(b.eng, algoSSSP) })
	probeFailed(res, "resident solve", err)
	res.set("query.solo_overhead_ratio", ratio(median(solo[algoSSSP]), median(resident)))
}
