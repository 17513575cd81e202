// declpat-launch runs a declpat algorithm across real OS worker processes.
// It spawns N copies of itself (or of -worker-bin) as rank hosts, serves the
// wire control plane — address exchange, barriers, gathers, termination
// waves, checkpoint-commit votes — and reassembles the distributed result.
//
//	declpat-launch -algo bfs -workers 4 -scale 12
//
// Fault drills: -kill-worker/-kill-epoch/-kill-mode schedule one seeded kill
// on the first attempt, after which the launcher respawns the fleet and
// drives checkpoint/restart to completion. The final result is bit-identical
// to the fault-free run:
//
//	declpat-launch -algo bfs -workers 4 -kill-worker 1 -kill-epoch 1 -kill-mode body
//
// Or kill any worker yourself mid-run (kill -9 <pid>; pids are logged) — the
// heartbeat watchdog notices, the fleet restarts from the last committed
// checkpoint, and the run still completes. Every worker keeps an always-on
// flight recorder; after a kill, declpat-trace -postmortem FLIGHT_DIR
// reconstructs the dead worker's final moments. With -watch the launcher
// prints a live per-epoch imbalance line as the workers' streamed phase data
// completes each epoch, and -metrics ADDR serves the fleet's straggler
// gauges and departure census as OpenMetrics at http://ADDR/metrics:
//
//	declpat-launch -algo sssp -workers 4 -trace-dir /tmp/trace -flight-dir /tmp/flight -watch
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"declpat/internal/harness"
	"declpat/internal/mp"
)

func main() {
	// Spawned copies of this binary become rank hosts here and never return.
	mp.MaybeWorker()

	algo := flag.String("algo", "bfs", "algorithm: bfs, sssp, or cc")
	workers := flag.Int("workers", 4, "number of OS worker processes")
	ranks := flag.Int("ranks", 0, "global ranks (0 = 2 per worker)")
	threads := flag.Int("threads", 2, "handler threads per rank")
	scale := flag.Int("scale", 10, "RMAT scale (2^scale vertices)")
	edgeFactor := flag.Int("edgefactor", 8, "RMAT edges per vertex")
	seed := flag.Uint64("seed", 42, "workload + fault schedule root seed")
	source := flag.Uint("source", 0, "bfs/sssp source vertex")
	delta := flag.Int64("delta", 8, "sssp bucket width")
	network := flag.String("network", "tcp", "worker data-plane sockets: tcp or unix")
	drop := flag.Float64("drop", 0, "data-plane drop rate (per worker, seeded)")
	killWorker := flag.Int("kill-worker", -1, "worker index to kill on attempt 0 (-1 = none)")
	killEpoch := flag.Int64("kill-epoch", 1, "epoch whose commit vote triggers the kill")
	killMode := flag.String("kill-mode", "body", "kill point: entry, body, or term")
	restarts := flag.Int("restarts", 3, "max fleet respawns")
	traceDir := flag.String("trace-dir", "", "write per-worker traces + the merged fleet timeline here (declpat-trace -fleet)")
	flightDir := flag.String("flight-dir", "", "flight-recorder dump directory (default: the checkpoint dir; declpat-trace -postmortem)")
	ckptDir := flag.String("ckpt-dir", "", "checkpoint slot directory (default: a temp dir removed after the run)")
	watch := flag.Bool("watch", false, "print a live per-epoch straggler/imbalance line")
	metricsAddr := flag.String("metrics", "", "serve fleet OpenMetrics (straggler gauges, departure census) on this address")
	workerBin := flag.String("worker-bin", "", "worker executable (default: this binary, self-exec)")
	timeout := flag.Duration("round-timeout", 30*time.Second, "control-round watchdog")
	flag.Parse()

	if *ranks <= 0 {
		*ranks = 2 * *workers
	}
	if *source > math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "declpat-launch: -source %d is not a vertex id (ids are 32-bit)\n", *source)
		os.Exit(2)
	}
	spec := mp.LaunchSpec{
		Job: mp.JobSpec{
			Algo:       *algo,
			Scale:      *scale,
			EdgeFactor: *edgeFactor,
			Seed:       *seed,
			Ranks:      *ranks,
			Threads:    *threads,
			Source:     uint32(*source),
			Delta:      *delta,
			Network:    *network,
			Drop:       *drop,
			TraceDir:   *traceDir,
			FlightDir:  *flightDir,
		},
		Workers:       *workers,
		RootSeed:      *seed,
		MaxRestarts:   *restarts,
		RoundTimeout:  *timeout,
		CheckpointDir: *ckptDir,
		Log:           os.Stderr,
	}
	if *workerBin != "" {
		spec.WorkerCommand = []string{*workerBin}
	}
	if *killWorker >= 0 {
		spec.Kill = &mp.KillSpec{Worker: *killWorker, Epoch: *killEpoch, Mode: *killMode}
	}
	if err := spec.Job.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "declpat-launch:", err)
		os.Exit(2)
	}

	mon := mp.NewFleetMonitor()
	spec.OnStraggler = func(st mp.StragglerStat) {
		mon.Straggler(st)
		if *watch {
			fmt.Fprintln(os.Stderr, "declpat-launch: "+st.String())
		}
	}
	if *metricsAddr != "" {
		srv, err := harness.NewDebugServer(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "declpat-launch: metrics server:", err)
			os.Exit(1)
		}
		srv.HandleMetrics(mon.WriteOpenMetrics)
		fmt.Fprintf(os.Stderr, "declpat-launch: fleet metrics at http://%s/metrics\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
	}

	start := time.Now()
	res, err := mp.Launch(spec)
	mon.Finish(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "declpat-launch:", err)
		os.Exit(1)
	}
	fmt.Printf("declpat-launch: %s over %d workers done in %v (attempts=%d clean-departures=%d run-id=%x)\n",
		*algo, *workers, time.Since(start).Round(time.Millisecond), res.Attempts, res.CleanDepartures, res.RunID)
	if st, ok := mon.Latest(); ok {
		fmt.Printf("declpat-launch: last %s\n", st.String())
	}
	if res.ClockErrNS > 0 {
		fmt.Printf("declpat-launch: fleet timeline aligned within ±%.1fµs\n", float64(res.ClockErrNS)/1e3)
	}
	if *flightDir != "" {
		fmt.Printf("declpat-launch: flight dumps in %s (declpat-trace -postmortem %s)\n", *flightDir, *flightDir)
	}
	for _, vec := range res.Vectors {
		nz := 0
		for _, v := range vec {
			if v != 0 {
				nz++
			}
		}
		fmt.Printf("declpat-launch: result vector: %d entries, %d nonzero\n", len(vec), nz)
	}
}
