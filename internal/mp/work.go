package mp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// traceFlushInterval paces the worker's incremental trace stream to the
// coordinator. Small enough that the launcher's straggler view and the merged
// fleet timeline stay near-live; large enough that a batch amortizes the
// frame overhead.
const traceFlushInterval = 25 * time.Millisecond

// Environment variables the launcher sets on every spawned worker. A binary
// that wants to host ranks calls MaybeWorker early in main (or TestMain);
// when the variables are absent it is a no-op and the binary runs normally.
const (
	EnvAddr   = "DECLPAT_MP_ADDR"
	EnvWorker = "DECLPAT_MP_WORKER"
)

// MaybeWorker turns the current process into a rank host when the launcher's
// environment variables are set, and never returns in that case (it exits
// with RunWorker's code). This is the self-exec pattern: the launcher's
// default WorkerCommand is its own executable, so one binary is both
// launcher and worker.
func MaybeWorker() {
	addr := os.Getenv(EnvAddr)
	if addr == "" {
		return
	}
	worker, err := strconv.Atoi(os.Getenv(EnvWorker))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mp worker: bad %s=%q: %v\n", EnvWorker, os.Getenv(EnvWorker), err)
		os.Exit(ExitUsage)
	}
	os.Exit(RunWorker(addr, worker))
}

// RunWorker is one rank host: dial the coordinator, receive the job and rank
// range in the welcome, build the workload and a universe whose global
// control operations (barriers, gathers, termination waves, recovery fences)
// ride the control connection, run the unmodified algorithm kernel, and ship
// the local result shards back. The return value is the process exit code
// (see the Exit* constants); in particular ErrPeerClosed and ErrDecode map
// to distinct codes so the launcher can log *why* a worker died.
func RunWorker(addr string, worker int) int {
	cl, err := Dial(addr, worker)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mp worker %d: dial %s: %v\n", worker, addr, err)
		return exitForErr(err, ExitFatal)
	}
	defer cl.Close()
	w := cl.Welcome()
	job, err := unmarshalJob(w.Job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mp worker %d: %v\n", worker, err)
		return exitForErr(err, ExitFatal)
	}

	n, edges := gen.RMAT(job.Scale, job.EdgeFactor, gen.Weights{Min: job.WMin, Max: job.WMax}, job.Seed)
	opts := []am.Option{
		am.WithThreads(job.Threads),
		am.WithCoalesce(job.Coalesce),
		am.WithDetector(am.DetectorFourCounter),
		am.WithControlPlane(cl.MPConfig()),
		// The chaos harness's test-speed failure machinery: a launched fleet
		// is expected to notice a killed worker in tens of milliseconds, not
		// seconds.
		am.WithTransport(am.SockTransport(am.SockOptions{
			Network:       job.Network,
			Heartbeat:     10 * time.Millisecond,
			Liveness:      100 * time.Millisecond,
			ReconnectBase: time.Millisecond,
			ReconnectMax:  10 * time.Millisecond,
			TickInterval:  200 * time.Microsecond,
		})),
	}
	if job.Drop > 0 || job.Dup > 0 || job.Delay > 0 || job.Corrupt > 0 {
		opts = append(opts, am.WithFaultPlan(&am.FaultPlan{
			Seed:    w.WorkerSeed,
			Drop:    job.Drop,
			Dup:     job.Dup,
			Delay:   job.Delay,
			Corrupt: job.Corrupt,
		}))
	}
	if job.TraceDir != "" {
		opts = append(opts, am.WithTiming(), am.WithTraceCapacity(job.TraceCap))
	}
	// The flight recorder is built before the universe (am.New wires it into
	// the trace path), but its counter sampler needs the universe — close over
	// a variable assigned right after construction. am.New happens before any
	// rank goroutine starts, so EpochCommit always sees the assignment.
	var flight *obs.FlightRecorder
	var uRef *am.Universe
	if job.FlightDir != "" {
		if err := os.MkdirAll(job.FlightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mp worker %d: flight dir: %v\n", worker, err)
		} else {
			flight = obs.NewFlightRecorder(obs.FlightConfig{
				Path:   filepath.Join(job.FlightDir, fmt.Sprintf("flight-%d.dpfr", worker)),
				Label:  fmt.Sprintf("mp-worker-%d", worker),
				Worker: worker,
				RankLo: w.Lo,
				RankHi: w.Hi,
				RunID:  w.RunID,
				Counters: func() map[string]int64 {
					if uRef == nil {
						return nil
					}
					return uRef.CounterSeries()
				},
			})
			opts = append(opts, am.WithFlightRecorder(flight))
		}
	}
	u := am.New(job.Ranks, opts...)
	uRef = u
	hooks := u.ControlHooks()
	cl.SetHooks(hooks)

	// Stream trace batches and clock estimates while the run is live: the
	// coordinator merges the batches into the fleet timeline and feeds the
	// straggler detector, and the flight recorder's header carries the latest
	// offset so postmortem timestamps line up with the fleet trace. A worker
	// killed mid-run has still shipped everything up to its last flush.
	stopFlush := make(chan struct{})
	flushDone := make(chan struct{})
	var cursors []int64
	flushTrace := func(final bool) {
		off, errB, okClk := cl.ClockEstimate()
		if flight != nil && okClk {
			flight.SetClock(off, errB)
		}
		if job.TraceDir == "" {
			return
		}
		var recs []obs.Record
		recs, cursors = u.ExportTraceSince(cursors)
		if len(recs) == 0 && !final {
			return
		}
		js, err := json.Marshal(recs)
		if err != nil {
			return
		}
		cl.SendTrace(traceMsg{
			Worker: worker, Lo: w.Lo, Hi: w.Hi,
			Offset: off, ErrBound: errB, Final: final, Records: js,
		})
	}
	go func() {
		defer close(flushDone)
		tick := time.NewTicker(traceFlushInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				flushTrace(false)
			case <-stopFlush:
				flushTrace(true)
				return
			}
		}
	}()
	drainFlush := func() { close(stopFlush); <-flushDone }

	d := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(d, edges, distgraph.Options{Symmetrize: job.Algo == "cc"})
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
	// The data plane crosses kernel sockets between co-hosted ranks too, so
	// the engine's message type needs a wire codec; the zero-reflection
	// fixed codec is its natural one.
	eng.MsgType().WithWire()

	// Graceful departure: SIGTERM drains via the goodbye/ack handshake
	// instead of dying into the heartbeat fault path. The coordinator acks,
	// counts a clean departure, and aborts the fleet (SPMD cannot continue
	// short-handed); our own copy of that abort unblocks the parked ranks.
	var departing atomic.Bool
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		if _, ok := <-sigs; !ok {
			return
		}
		departing.Store(true)
		if err := cl.Goodbye(2 * time.Second); err != nil {
			// No ack — the coordinator is gone too; unblock locally.
			hooks.RemoteAbort(fmt.Errorf("mp: departing on SIGTERM: %w", err), true)
		}
	}()

	var body func(r *am.Rank)
	var vecs []*pmap.VertexWord
	switch job.Algo {
	case "bfs":
		b := algorithms.NewBFS(eng)
		body = func(r *am.Rank) { b.Run(r, distgraph.Vertex(job.Source)) }
		vecs = []*pmap.VertexWord{b.Level}
	case "sssp":
		s := algorithms.NewSSSP(eng)
		s.UseDelta(u, job.Delta)
		body = func(r *am.Rank) { s.Run(r, distgraph.Vertex(job.Source)) }
		vecs = []*pmap.VertexWord{s.Dist}
	case "cc":
		// RunResolve, not Run: the final pointer-chase rewrite is "not a
		// graph computation" (§II-B) and local rewrites would bake
		// worker-local views into the shipped labels. The launcher resolves
		// components from the full gathered (pnt, chg) tables instead.
		c := algorithms.NewCC(eng, lm)
		body = func(r *am.Rank) { c.RunResolve(r) }
		vecs = []*pmap.VertexWord{c.Pnt, c.Chg}
	}

	if err := u.Run(body); err != nil {
		drainFlush()
		if departing.Load() {
			// A SIGTERM goodbye drain is a *clean* exit: it leaves the same
			// trace artifact a completed run does (this path used to skip
			// it), plus a flight dump naming the departure.
			writeArtifacts(u, cl, job, worker, flight, "sigterm departure")
			return ExitClean
		}
		writeArtifacts(u, cl, job, worker, flight, "run failed: "+err.Error())
		fmt.Fprintf(os.Stderr, "mp worker %d: run failed: %v\n", worker, err)
		if cerr := cl.Err(); cerr != nil {
			return exitForErr(cerr, ExitRestart)
		}
		return ExitRestart
	}

	// Final drain before fResultDone: the coordinator snapshots the merged
	// fleet trace into the attempt outcome when results complete.
	drainFlush()
	writeArtifacts(u, cl, job, worker, flight, "run complete")
	if err := shipResults(cl, d, vecs, int(w.Lo), int(w.Hi)); err != nil {
		fmt.Fprintf(os.Stderr, "mp worker %d: shipping results: %v\n", worker, err)
		return exitForErr(err, ExitFatal)
	}
	return ExitClean
}

// writeArtifacts leaves the worker's on-disk observability record: the timed
// trace (when tracing is on) and a flight dump stamped with the final clock
// estimate. Called on every exit path — clean completion, SIGTERM departure,
// run failure — so the artifacts do not depend on a happy ending.
func writeArtifacts(u *am.Universe, cl *Client, job JobSpec, worker int, flight *obs.FlightRecorder, reason string) {
	if job.TraceDir != "" {
		if err := writeTrace(u, cl, job.TraceDir, worker); err != nil {
			fmt.Fprintf(os.Stderr, "mp worker %d: trace: %v\n", worker, err)
		}
	}
	if flight != nil {
		if off, errB, ok := cl.ClockEstimate(); ok {
			flight.SetClock(off, errB)
		}
		if err := flight.Persist(reason); err != nil {
			fmt.Fprintf(os.Stderr, "mp worker %d: flight dump: %v\n", worker, err)
		}
		// The terminal dump is written; seal so the teardown race (the
		// coordinator closing control connections reads as a fleet abort)
		// cannot overwrite it with a bogus reason.
		flight.Seal()
	}
}

// exitForErr maps the classified control-plane sentinels onto their distinct
// exit codes, falling back to def for everything else.
func exitForErr(err error, def int) int {
	switch {
	case errors.Is(err, ErrPeerClosed):
		return ExitPeerClosed
	case errors.Is(err, ErrDecode):
		return ExitDecode
	}
	return def
}

// writeTrace exports the worker's trace with the fleet meta fields stamped —
// worker index, hosted rank range, and the clock estimate — so a directory of
// per-worker files merges onto the launcher timebase offline
// (obs.ReadTraceDir / declpat-trace -phases DIR).
func writeTrace(u *am.Universe, cl *Client, dir string, worker int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, recs := u.ExportTrace(fmt.Sprintf("mp-worker-%d", worker))
	meta.Worker = worker
	meta.RankLo, meta.RankHi = cl.Welcome().Lo, cl.Welcome().Hi
	if off, errB, ok := cl.ClockEstimate(); ok {
		meta.ClockOffsetNS, meta.ClockErrNS = off, errB
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("worker-%d.trace.jsonl", worker)))
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, meta, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shipResults sends every result vector's local shards to the coordinator,
// one fResult frame per (vector, hosted rank), then fResultDone. Shard
// placement is by global vertex id, so the coordinator reassembles the full
// vector without knowing the distribution.
func shipResults(cl *Client, d distgraph.BlockDist, vecs []*pmap.VertexWord, lo, hi int) error {
	for vi, vec := range vecs {
		for rank := lo; rank < hi; rank++ {
			var vals []int64
			vec.ForEachLocal(rank, func(_ distgraph.Vertex, x int64) { vals = append(vals, x) })
			if len(vals) == 0 {
				continue
			}
			body := resultMsg{Vec: vi, VertexLo: uint64(d.Global(rank, 0)), Vals: vals}
			if err := cl.write(fResult, body); err != nil {
				return err
			}
		}
	}
	return cl.write(fResultDone, nil)
}
