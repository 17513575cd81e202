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

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
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
// with RunWorker's code). This is the self-exec pattern: Launch spawns its
// own executable as every worker, so one binary is both launcher and worker
// — declpat-launch, or a test binary that calls this in TestMain.
func MaybeWorker() {
	addr := os.Getenv(EnvAddr)
	if addr == "" {
		return
	}
	worker, err := strconv.Atoi(os.Getenv(EnvWorker))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mp worker: bad %s=%q: %v\n", EnvWorker, os.Getenv(EnvWorker), err)
		os.Exit(ExitFatal)
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

	opts := []am.Option{
		am.WithThreads(job.Threads),
		am.WithControlPlane(cl.MPConfig()),
		am.WithTransport(am.SockTransport(am.SockOptions{
			Network:      job.Network,
			TickInterval: 200 * time.Microsecond,
		})),
	}
	if job.Drop > 0 {
		opts = append(opts, am.WithFaultPlan(&am.FaultPlan{Seed: w.WorkerSeed, Drop: job.Drop}))
	}
	if job.TraceDir != "" {
		opts = append(opts, am.WithTiming(), am.WithTraceCapacity(traceCap))
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
		recs, next, overwritten := u.ExportTraceSince(cursors)
		cursors = next
		if len(recs) == 0 && overwritten == 0 && !final {
			return
		}
		js, err := json.Marshal(recs)
		if err != nil {
			return
		}
		cl.SendTrace(traceMsg{
			Worker: worker, Lo: w.Lo, Hi: w.Hi,
			Offset: off, ErrBound: errB, Final: final, Records: js, Dropped: overwritten,
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

	body, vecs := job.Bind(u)

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

	if err := u.Run(body); err != nil {
		drainFlush()
		if departing.Load() {
			// A SIGTERM goodbye drain is a *clean* exit: its flight dump
			// names the departure.
			persistFlight(cl, worker, flight, "sigterm departure")
			return ExitClean
		}
		persistFlight(cl, worker, flight, "run failed: "+err.Error())
		fmt.Fprintf(os.Stderr, "mp worker %d: run failed: %v\n", worker, err)
		if cerr := cl.Err(); cerr != nil {
			return exitForErr(cerr, ExitRestart)
		}
		return ExitRestart
	}

	// Final drain before fResultDone: the coordinator snapshots the merged
	// fleet trace into the attempt outcome when results complete.
	drainFlush()
	persistFlight(cl, worker, flight, "run complete")
	if err := shipResults(cl, vecs, int(w.Lo), int(w.Hi)); err != nil {
		fmt.Fprintf(os.Stderr, "mp worker %d: shipping results: %v\n", worker, err)
		return exitForErr(err, ExitFatal)
	}
	return ExitClean
}

// persistFlight leaves the worker's on-disk black box: a flight dump stamped
// with the final clock estimate. Called on every exit path — clean
// completion, SIGTERM departure, run failure — so the dump does not depend on
// a happy ending. (The worker's trace is not a file of its own: it streams to
// the coordinator, which writes the one fleet timeline.)
func persistFlight(cl *Client, worker int, flight *obs.FlightRecorder, reason string) {
	if flight == nil {
		return
	}
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

// shipResults sends every result vector's local shards to the coordinator,
// one fResult frame per (vector, hosted rank), then fResultDone. Shard
// placement is by global vertex id, so the coordinator reassembles the full
// vector without knowing the distribution.
func shipResults(cl *Client, vecs []*pmap.VertexWord, lo, hi int) error {
	for vi, vec := range vecs {
		for rank := lo; rank < hi; rank++ {
			var vals []int64
			vec.ForEachLocal(rank, func(_ distgraph.Vertex, x int64) { vals = append(vals, x) })
			if len(vals) == 0 {
				continue
			}
			body := resultMsg{Vec: vi, VertexLo: uint64(vec.Dist().Global(rank, 0)), Vals: vals}
			if err := cl.write(fResult, body); err != nil {
				return err
			}
		}
	}
	return cl.write(fResultDone, nil)
}
