package mp

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
	"declpat/internal/obs"
)

// KillSpec schedules one seeded worker kill for a launch (attempt 0 only —
// the respawned fleet runs undisturbed, which is what makes the
// bit-identical comparison meaningful).
type KillSpec struct {
	// Worker is the target worker index.
	Worker int
	// Epoch is the epoch whose checkpoint-commit vote triggers the kill.
	Epoch int64
	// Mode selects the kill point:
	//   - "entry": the coordinator withholds the commit vote's release and
	//     the launcher SIGKILLs the target — the kill lands between the vote
	//     and its ack, so recovery must fall back to the previous committed
	//     epoch;
	//   - "body": the target worker SIGKILLs itself right after the vote's
	//     release — a mid-epoch crash recovered from the epoch just
	//     committed;
	//   - "term": the launcher SIGTERMs the target after the vote commits —
	//     the graceful-departure drain (goodbye/ack) instead of the
	//     heartbeat fault path.
	Mode string
}

// LaunchSpec configures a run of one job: in the calling process (Workers
// 0) or as a multi-process fleet. Fields below Workers other than RootSeed
// and Log are the fleet's; Validate refuses Kill, CheckpointDir,
// Job.FlightDir and OnStraggler in process instead of ignoring them.
type LaunchSpec struct {
	// Job is the algorithm workload the run executes.
	Job JobSpec
	// Workers is the number of OS worker processes; global ranks are split
	// contiguously over them. 0 runs the job in the calling process.
	Workers int
	// RootSeed derives the RunID and every worker's fault seed (an
	// in-process run takes worker 0's of a one-worker fleet).
	RootSeed uint64
	// Kill, when non-nil, schedules one seeded kill on attempt 0.
	Kill *KillSpec
	// MaxRestarts bounds fleet respawns (0 selects 3).
	MaxRestarts int
	// RoundTimeout bounds every control round (0 selects 30s).
	RoundTimeout time.Duration
	// CheckpointDir holds the fleet's checkpoint slot files; "" creates a
	// temporary directory removed after the launch. Must be on a filesystem
	// shared by launcher and workers.
	CheckpointDir string
	// OnStraggler, when non-nil, receives one per-epoch imbalance summary as
	// the workers' streamed phase data completes each epoch — the live
	// straggler feed behind declpat-launch -watch. Called from the
	// coordinator event loop; must not block.
	OnStraggler func(StragglerStat)
	// Log receives launcher diagnostics and worker stderr (nil discards).
	Log io.Writer
}

// LaunchResult is a completed launch.
type LaunchResult struct {
	// Vectors is the algorithm output: [levels] for bfs, [distances] for
	// sssp, [canonical components] for cc.
	Vectors [][]int64
	// Attempts counts fleet attempts (1 = no restart was needed);
	// CleanDepartures counts attempts ended by a goodbye drain rather than
	// a crash.
	Attempts        int
	CleanDepartures int
	// RunID is the fleet identity (constant across attempts; checkpoint
	// files are validated against it).
	RunID uint64
	// ExitCodes records every reaped worker's exit code per attempt,
	// indexed [attempt][worker]. Killed-by-signal workers report -1.
	ExitCodes [][]int
	// Stragglers collects every per-epoch imbalance summary emitted across
	// the launch (all attempts, in emission order).
	Stragglers []StragglerStat
	// ClockErrNS is the largest clock-offset error bound any worker reported
	// — the fleet timeline's alignment uncertainty. Zero when no worker
	// streamed traces.
	ClockErrNS int64
}

// ExitTally tallies reaped worker exit codes across all attempts, keyed by
// their classification (describeExit) — the launcher's departure census,
// exported through the fleet /metrics endpoint.
func (r *LaunchResult) ExitTally() map[string]int {
	tally := map[string]int{}
	for _, attempt := range r.ExitCodes {
		for _, code := range attempt {
			tally[describeExit(code)]++
		}
	}
	return tally
}

// Validate is the one check of a launch, made before anything is built: it
// normalizes the job (JobSpec.Normalize) and refuses a negative worker count,
// fewer ranks than workers, an unknown kill mode or out-of-range kill target,
// and — in process — the fleet-only Kill, CheckpointDir, Job.FlightDir and
// OnStraggler.
func (s *LaunchSpec) Validate() error {
	if s.Workers < 0 {
		return fmt.Errorf("mp: negative worker count %d", s.Workers)
	}
	if err := s.Job.Normalize(); err != nil {
		return err
	}
	if s.Workers == 0 {
		for _, fleetOnly := range []struct {
			name string
			set  bool
		}{
			{"a kill schedule", s.Kill != nil},
			{"a checkpoint directory", s.CheckpointDir != ""},
			{"a flight-recorder directory", s.Job.FlightDir != ""},
			{"a straggler feed", s.OnStraggler != nil},
		} {
			if fleetOnly.set {
				return fmt.Errorf("mp: %s needs a fleet (workers above 0)", fleetOnly.name)
			}
		}
		return nil
	}
	if s.Job.Ranks < s.Workers {
		return fmt.Errorf("mp: %d workers need at least as many ranks, got %d", s.Workers, s.Job.Ranks)
	}
	if s.Kill != nil {
		switch s.Kill.Mode {
		case "entry", "body", "term":
		default:
			return fmt.Errorf("mp: unknown kill mode %q (want entry, body, or term)", s.Kill.Mode)
		}
		if s.Kill.Worker < 0 || s.Kill.Worker >= s.Workers {
			return fmt.Errorf("mp: kill targets worker %d of %d", s.Kill.Worker, s.Workers)
		}
	}
	return nil
}

// Launch runs a validated job to completion and is the one runner of a
// JobSpec. With Workers 0 the job runs in the calling process (runInProcess).
// Otherwise it runs as a multi-process SPMD fleet: spawn N workers, exchange
// data-plane addresses, run the job with all global control operations on the
// wire, and — when a worker dies or departs — respawn the fleet from the last
// committed checkpoint until the run completes or the restart budget is
// exhausted. The final result is bit-identical to a fault-free run: committed
// collective results replay from the coordinator's gather log and
// checkpointed state reloads from the slot files.
func Launch(spec LaunchSpec) (*LaunchResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxRestarts <= 0 {
		spec.MaxRestarts = 3
	}
	if spec.Log == nil {
		spec.Log = io.Discard
	}
	// Worker stderr arrives via exec's pipe-copy goroutines concurrently
	// with launcher diagnostics; serialize every write to the shared sink.
	sink := &syncWriter{w: spec.Log}
	logf := func(format string, args ...any) {
		fmt.Fprintf(sink, format+"\n", args...)
	}
	res := &LaunchResult{RunID: harness.DeriveSeed(spec.RootSeed, "mp-run-id")}
	if spec.Workers == 0 {
		vectors, err := runInProcess(spec, logf)
		if err != nil {
			return nil, err
		}
		res.Attempts, res.Vectors = 1, vectors
		return res, nil
	}
	// Every worker is this executable, made a rank host by MaybeWorker.
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mp: resolving worker executable: %w", err)
	}
	ckptDir := spec.CheckpointDir
	if ckptDir == "" {
		dir, err := os.MkdirTemp("", "declpat-mp-*")
		if err != nil {
			return nil, fmt.Errorf("mp: checkpoint dir: %w", err)
		}
		defer os.RemoveAll(dir)
		ckptDir = dir
	}
	// Flight recorders are always on: default the dump directory to the
	// checkpoint directory (already required to be launcher/worker-shared),
	// so every launched fleet leaves a postmortem black box per worker.
	if spec.Job.FlightDir == "" {
		spec.Job.FlightDir = ckptDir
	}
	jobJSON, err := spec.Job.marshal()
	if err != nil {
		return nil, fmt.Errorf("mp: encoding job: %w", err)
	}

	committed := int64(-1)
	var log [][]int64
	// Fleet timeline: every attempt's streamed records accumulate here. The
	// coordinator already aligned them onto the launcher's timebase, which is
	// stable across attempts (same process), so records from a killed attempt
	// and its respawn interleave correctly in one merged trace; so do the
	// counts of events worker rings overwrote before streaming them.
	var fleetRecs []obs.Record
	var fleetDropped int64

	for attempt := 0; ; attempt++ {
		if attempt > spec.MaxRestarts {
			// The merged timeline of a fleet that never finished is exactly
			// what the operator wants to look at — write it anyway.
			writeFleetTrace(spec, fleetRecs, fleetDropped, res.ClockErrNS, logf)
			return nil, fmt.Errorf("mp: fleet still failing after %d restarts", spec.MaxRestarts)
		}
		res.Attempts++
		procs := make([]*workerProc, spec.Workers)
		coord, err := newCoordinator(coordSpec{
			Workers:   spec.Workers,
			Ranks:     spec.Job.Ranks,
			RunID:     res.RunID,
			JobJSON:   jobJSON,
			CkptDir:   ckptDir,
			RootSeed:  spec.RootSeed,
			Committed: committed,
			Log:       log,
			Kill:      spec.Kill,
			ArmKill:   attempt == 0,
			OnKill: func(worker int, mode string) {
				p := procs[worker]
				if p == nil {
					return
				}
				switch mode {
				case "entry":
					p.cmd.Process.Kill()
				case "term":
					p.cmd.Process.Signal(syscall.SIGTERM)
				}
			},
			OnStraggler: func(st StragglerStat) {
				// coord.run() blocks the loop below until the attempt ends,
				// so appending from the event loop cannot race Launch.
				res.Stragglers = append(res.Stragglers, st)
				if spec.OnStraggler != nil {
					spec.OnStraggler(st)
				}
			},
			RoundTimeout: spec.RoundTimeout,
			Logf:         logf,
		})
		if err != nil {
			return nil, err
		}
		if attempt > 0 {
			logf("mp: attempt %d: respawning %d workers from committed epoch %d (%d logged collectives)",
				attempt+1, spec.Workers, committed, len(log))
		}
		spawnErr := error(nil)
		for w := 0; w < spec.Workers; w++ {
			p, err := spawnWorker(exe, coord.addr(), w, sink)
			if err != nil {
				spawnErr = fmt.Errorf("mp: spawning worker %d: %w", w, err)
				break
			}
			procs[w] = p
			logf("mp: worker %d: pid %d (ranks [%d,%d))", w, p.cmd.Process.Pid,
				w*spec.Job.Ranks/spec.Workers, (w+1)*spec.Job.Ranks/spec.Workers)
		}
		var out attemptOutcome
		if spawnErr != nil {
			coord.ln.Close()
			out = attemptOutcome{err: spawnErr, committed: committed, log: log}
		} else {
			out = coord.run()
		}
		codes := reapWorkers(procs, logf)
		res.ExitCodes = append(res.ExitCodes, codes)
		if spawnErr != nil {
			return nil, spawnErr
		}
		fleetRecs = append(fleetRecs, out.trace...)
		fleetDropped += out.dropped
		if out.clockErr > res.ClockErrNS {
			res.ClockErrNS = out.clockErr
		}
		if out.ok {
			writeFleetTrace(spec, fleetRecs, fleetDropped, res.ClockErrNS, logf)
			vectors, err := assemble(spec.Job, out.results)
			if err != nil {
				return nil, err
			}
			res.Vectors = vectors
			return res, nil
		}
		if out.clean {
			res.CleanDepartures++
		}
		logf("mp: attempt %d failed: %v", attempt+1, out.err)
		// Preserve the evidence: the respawned fleet's recorders would
		// otherwise overwrite the dead attempt's dumps at their first epoch
		// commit — exactly the dumps a postmortem is about.
		archiveFlightDumps(spec.Job.FlightDir, attempt, logf)
		committed, log = out.committed, out.log
	}
}

// archiveFlightDumps renames an ended attempt's flight-<w>.dpfr dumps to
// flight-<w>.attempt<k>.dpfr. The archived names still match the
// flight-*.dpfr pattern, so declpat-trace -postmortem shows the killed
// attempt's black boxes alongside the final attempt's.
func archiveFlightDumps(dir string, attempt int, logf func(string, ...any)) {
	paths, _ := filepath.Glob(filepath.Join(dir, "flight-*.dpfr"))
	for _, p := range paths {
		base := filepath.Base(p)
		if strings.Contains(base, ".attempt") {
			continue // already archived by an earlier attempt
		}
		dst := strings.TrimSuffix(p, ".dpfr") + fmt.Sprintf(".attempt%d.dpfr", attempt)
		if err := os.Rename(p, dst); err != nil {
			logf("mp: archiving flight dump %s: %v", base, err)
		}
	}
	// A worker killed (or exiting) mid-Persist leaves the unrenamed temp
	// behind; every reaped worker is dead by now, so any temp is garbage.
	tmps, _ := filepath.Glob(filepath.Join(dir, "flight-*.dpfr.tmp-*"))
	for _, p := range tmps {
		os.Remove(p)
	}
}

// runInProcess runs the job in the calling process on a chan universe built
// as a worker's is — Ranks ranks × Threads handler threads, Drop as the
// seeded fault plan worker 0 of a one-worker fleet gets, timing and a traceCap
// ring when TraceDir is set — and returns its gathered result through
// assemble, as a fleet's. A traced run leaves the same one timeline a fleet
// does.
func runInProcess(spec LaunchSpec, logf func(string, ...any)) ([][]int64, error) {
	job := spec.Job
	opts := []am.Option{am.WithThreads(job.Threads)}
	if job.Drop > 0 {
		seed := harness.WorkerSeed(spec.RootSeed, 0, 0, job.Ranks)
		opts = append(opts, am.WithFaultPlan(&am.FaultPlan{Seed: seed, Drop: job.Drop}))
	}
	if job.TraceDir != "" {
		opts = append(opts, am.WithTiming(), am.WithTraceCapacity(traceCap))
	}
	u := am.New(job.Ranks, opts...)
	_, body, vecs := job.Bind(u)
	if err := u.Run(body); err != nil {
		return nil, fmt.Errorf("mp: %s run failed: %w", job.Algo, err)
	}
	recs, _, dropped := u.ExportTraceSince(nil)
	writeFleetTrace(spec, recs, dropped, 0, logf)
	results := map[int][]int64{}
	for i, vec := range vecs {
		results[i] = vec.Gather()
	}
	return assemble(job, results)
}

// writeFleetTrace writes a run's one timeline as TraceDir/fleet.trace.jsonl:
// a fleet's is the coordinator's merged, offset-corrected record stream,
// including every batch a killed worker streamed before dying; an in-process
// run's is its universe's export. dropped is the events rings overwrote
// before they were read, which declpat-trace reports. Best-effort: a launch
// never fails over its trace artifact.
func writeFleetTrace(spec LaunchSpec, recs []obs.Record, dropped, clockErr int64, logf func(string, ...any)) {
	if spec.Job.TraceDir == "" || len(recs) == 0 {
		return
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
	types := map[string]bool{}
	meta := obs.Meta{
		Label:      "mp-fleet",
		Ranks:      spec.Job.Ranks,
		Dropped:    dropped,
		ClockErrNS: clockErr,
	}
	if spec.Workers == 0 {
		meta.Label = spec.Job.Algo
	}
	for _, r := range recs {
		// A phase record's Type names its phase, not a message type.
		if r.Kind != "phase" && r.Type != "" && !types[r.Type] {
			types[r.Type] = true
			meta.Types = append(meta.Types, r.Type)
		}
	}
	if err := os.MkdirAll(spec.Job.TraceDir, 0o755); err != nil {
		logf("mp: timeline: %v", err)
		return
	}
	path := filepath.Join(spec.Job.TraceDir, "fleet.trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		logf("mp: timeline: %v", err)
		return
	}
	if err := obs.WriteJSONL(f, meta, recs); err != nil {
		f.Close()
		logf("mp: timeline: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		logf("mp: timeline: %v", err)
		return
	}
	logf("mp: timeline: %d records -> %s", len(recs), path)
}

// syncWriter serializes writes to the launch log sink.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// workerProc is one spawned worker process plus its asynchronous wait.
type workerProc struct {
	cmd    *exec.Cmd
	waitCh chan int
}

func spawnWorker(exe, addr string, worker int, log io.Writer) (*workerProc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"DECLPAT_MP_ADDR="+addr,
		fmt.Sprintf("DECLPAT_MP_WORKER=%d", worker),
	)
	cmd.Stdout = log
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &workerProc{cmd: cmd, waitCh: make(chan int, 1)}
	go func() {
		err := cmd.Wait()
		code := 0
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode() // -1 when killed by a signal
			} else {
				code = -1
			}
		}
		p.waitCh <- code
	}()
	return p, nil
}

// reapGrace bounds how long a worker gets to exit on its own after the
// attempt ended before the launcher SIGKILLs it.
const reapGrace = 5 * time.Second

// reapWorkers joins every worker process, escalating to SIGKILL after the
// grace period, and logs each exit code with its meaning — the launcher's
// record of *why* it is respawning (satellite: exit-code classification).
func reapWorkers(procs []*workerProc, logf func(string, ...any)) []int {
	codes := make([]int, len(procs))
	for w, p := range procs {
		if p == nil {
			codes[w] = -1
			continue
		}
		select {
		case code := <-p.waitCh:
			codes[w] = code
		case <-time.After(reapGrace):
			p.cmd.Process.Kill()
			codes[w] = <-p.waitCh
		}
		logf("mp: worker %d exited: %s", w, describeExit(codes[w]))
	}
	return codes
}

// Worker process exit codes (MaybeWorker and RunWorker). Status 2 is not
// among them: it is what the Go runtime exits with on a panic.
const (
	// ExitClean: the run completed (or the worker departed gracefully after
	// a SIGTERM drain).
	ExitClean = 0
	// ExitFatal: an unclassified fatal error (malformed worker environment,
	// bad job, dial failure).
	ExitFatal = 1
	// ExitRestart: the fleet aborted (a peer died or a fault was reported);
	// the worker exited so the launcher can respawn it.
	ExitRestart = 3
	// ExitPeerClosed: the control peer closed the connection.
	ExitPeerClosed = 4
	// ExitDecode: a control frame failed to decode — protocol
	// damage, distinct from a dead peer.
	ExitDecode = 5
)

func describeExit(code int) string {
	switch code {
	case ExitClean:
		return "code 0 (clean)"
	case ExitFatal:
		return "code 1 (fatal error)"
	case 2:
		return "code 2 (Go runtime panic)"
	case ExitRestart:
		return "code 3 (restart requested: fleet aborted)"
	case ExitPeerClosed:
		return "code 4 (control peer closed)"
	case ExitDecode:
		return "code 5 (control frame decode failure)"
	case -1:
		return "killed by signal"
	}
	return fmt.Sprintf("code %d", code)
}

// assemble turns the coordinator's collected result vectors into the
// algorithm's output. For cc the two gathered vectors (pnt, chg) are
// resolved into component labels here — the paper's final rewrite is "not a
// graph computation" (§II-B), so the launcher performs it from the full
// label tables — and canonicalized (CC's raw root labels are race-dependent;
// the induced partition is the deterministic output).
func assemble(job JobSpec, results map[int][]int64) ([][]int64, error) {
	idxs := vecIndices(results)
	want := 1
	if job.Algo == "cc" {
		want = 2
	}
	if len(idxs) != want {
		return nil, fmt.Errorf("mp: collected %d result vectors for %s, want %d", len(idxs), job.Algo, want)
	}
	if job.Algo != "cc" {
		return [][]int64{results[idxs[0]]}, nil
	}
	pnt, chg := results[0], results[1]
	if len(pnt) != len(chg) {
		return nil, fmt.Errorf("mp: cc result vectors disagree: %d pnt, %d chg entries", len(pnt), len(chg))
	}
	comp := make([]int64, len(pnt))
	for v := range pnt {
		lbl := pnt[v]
		for i := 0; i < 64; i++ {
			if lbl < 0 || int(lbl) >= len(chg) {
				return nil, fmt.Errorf("mp: cc rewrite escaped the label table at vertex %d (label %d)", v, lbl)
			}
			next := chg[lbl]
			if next == lbl {
				break
			}
			lbl = next
		}
		comp[v] = lbl
	}
	return [][]int64{algorithms.Canonicalize(comp)}, nil
}
