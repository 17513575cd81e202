// declpat-launch runs a bfs, sssp or cc job — in this process, or across
// real OS worker processes — and checks its result against the sequential
// oracle: it prints "verify: OK" or exits 1. An invalid job or a setting its
// mode does not take exits 2 with one error line before anything is built.
//
// With -workers 0 the job runs in process on ranks × threads:
//
//	declpat-launch -workers 0 -algo sssp -scale 14 -ranks 4 -threads 2
//
// Otherwise it spawns N copies of itself as rank hosts (it is the only worker
// binary), serves the wire control plane — address exchange, barriers,
// gathers, termination waves, checkpoint-commit votes — and reassembles the
// distributed result:
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
// gauges and departure census as OpenMetrics at http://ADDR/metrics. The
// kill, checkpoint, flight, watch, metrics, restart, round-timeout and
// network flags are a fleet's; -workers 0 refuses them.
//
// In either mode -trace-dir DIR leaves the run's one timeline in DIR, which
// declpat-trace -in DIR reads:
//
//	declpat-launch -algo sssp -workers 4 -trace-dir /tmp/trace -flight-dir /tmp/flight -watch
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"declpat/internal/harness"
	"declpat/internal/mp"
)

func main() {
	// Spawned copies of this binary become rank hosts here and never return.
	mp.MaybeWorker()

	algo := flag.String("algo", "bfs", "algorithm: bfs, sssp, or cc")
	workers := flag.Int("workers", 4, "number of OS worker processes (0 = run in this process)")
	ranks := flag.Int("ranks", 0, "global ranks (0 = 2 per worker; 4 in process)")
	threads := flag.Int("threads", 2, "handler threads per rank")
	scale := flag.Int("scale", 10, "RMAT scale (2^scale vertices)")
	edgeFactor := flag.Int("edgefactor", 8, "RMAT edges per vertex")
	seed := flag.Uint64("seed", 42, "workload + fault schedule root seed")
	source := flag.Uint("source", 0, "bfs/sssp source vertex")
	delta := flag.Int64("delta", 8, "sssp bucket width")
	network := flag.String("network", "tcp", "worker data-plane sockets: tcp or unix")
	drop := flag.Float64("drop", 0, "data-plane drop rate (seeded per worker)")
	killWorker := flag.Int("kill-worker", -1, "worker index to kill on attempt 0 (-1 = none)")
	killEpoch := flag.Int64("kill-epoch", 1, "epoch whose commit vote triggers the kill")
	killMode := flag.String("kill-mode", "body", "kill point: entry, body, or term")
	restarts := flag.Int("restarts", 3, "max fleet respawns")
	traceDir := flag.String("trace-dir", "", "write the run's one timeline here (declpat-trace -in DIR)")
	flightDir := flag.String("flight-dir", "", "flight-recorder dump directory (default: the checkpoint dir; declpat-trace -postmortem)")
	ckptDir := flag.String("ckpt-dir", "", "checkpoint slot directory (default: a temp dir removed after the run)")
	watch := flag.Bool("watch", false, "print a live per-epoch straggler/imbalance line")
	metricsAddr := flag.String("metrics", "", "serve fleet OpenMetrics (straggler gauges, departure census) on this address")
	timeout := flag.Duration("round-timeout", 30*time.Second, "control-round watchdog")
	flag.Parse()

	refuse := func(err error) {
		fmt.Fprintln(os.Stderr, "declpat-launch:", err)
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *workers == 0 {
		// Fleet-only flags LaunchSpec does not carry; Validate refuses the
		// ones it does (-kill-*, -ckpt-dir, -flight-dir).
		for _, name := range []string{"network", "restarts", "round-timeout", "watch", "metrics"} {
			if set[name] {
				refuse(fmt.Errorf("-%s needs a fleet (-workers above 0)", name))
			}
		}
	}
	if *ranks == 0 && *workers > 0 {
		*ranks = 2 * *workers
	}
	spec := mp.LaunchSpec{
		Job: mp.JobSpec{
			Algo:       *algo,
			Scale:      *scale,
			EdgeFactor: *edgeFactor,
			Seed:       *seed,
			Ranks:      *ranks,
			Threads:    *threads,
			Source:     uint64(*source),
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
	if *killWorker >= 0 || set["kill-epoch"] || set["kill-mode"] {
		spec.Kill = &mp.KillSpec{Worker: *killWorker, Epoch: *killEpoch, Mode: *killMode}
	}
	mon := mp.NewFleetMonitor()
	if *workers != 0 {
		spec.OnStraggler = func(st mp.StragglerStat) {
			mon.Straggler(st)
			if *watch {
				fmt.Fprintln(os.Stderr, "declpat-launch: "+st.String())
			}
		}
	}
	if err := spec.Validate(); err != nil {
		refuse(err)
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
	elapsed := time.Since(start).Round(time.Millisecond)
	if *workers == 0 {
		fmt.Printf("declpat-launch: %s in process on %d ranks × %d threads done in %v\n",
			*algo, spec.Job.Ranks, spec.Job.Threads, elapsed)
	} else {
		fmt.Printf("declpat-launch: %s over %d workers done in %v (attempts=%d clean-departures=%d run-id=%x)\n",
			*algo, *workers, elapsed, res.Attempts, res.CleanDepartures, res.RunID)
	}
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
	if err := spec.Job.Verify(res.Vectors); err != nil {
		fmt.Fprintln(os.Stderr, "declpat-launch: verify FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("verify: OK (matches the sequential reference)")
}
