package mp_test

// End-to-end multi-process SPMD tests: Launch spawns real OS worker
// processes (this test binary re-execed; TestMain routes the children into
// mp.MaybeWorker), runs BFS/SSSP/CC with all control traffic on the wire,
// and holds every result to the sequential oracle (JobSpec.Verify).
// The kill tests are the tentpole acceptance: a seeded SIGKILL mid-run must
// end in respawn + checkpoint/restart with a correct result.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/harness"
	"declpat/internal/mp"
	"declpat/internal/obs"
)

func TestMain(m *testing.M) {
	mp.MaybeWorker() // does not return in launcher-spawned children
	os.Exit(m.Run())
}

// testJob is the shared fleet workload: small enough to keep the multi-
// process matrix fast, large enough for multi-epoch SSSP/CC runs.
func testJob(algo string) mp.JobSpec {
	return mp.JobSpec{
		Algo:       algo,
		Scale:      6,
		EdgeFactor: 8,
		Seed:       7,
		Ranks:      4,
		Threads:    2,
		Source:     1,
		Delta:      8,
	}
}

// launch runs a fleet attached to the test log and fails the test on error.
func launch(t *testing.T, spec mp.LaunchSpec) *mp.LaunchResult {
	t.Helper()
	var log bytes.Buffer
	spec.Log = &log
	res, err := mp.Launch(spec)
	if err != nil {
		t.Fatalf("launch failed: %v\nlauncher log:\n%s", err, log.String())
	}
	t.Logf("launcher log:\n%s", log.String())
	return res
}

// checkOracle holds a launch's result to the job's own oracle
// (JobSpec.Verify, the check declpat-launch prints). A cc vector must also be
// canonical — each component named by its smallest vertex, as Launch
// assembles it — so equal partitions are equal vectors, bit for bit.
func checkOracle(t *testing.T, job mp.JobSpec, got [][]int64) {
	t.Helper()
	if err := job.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(got); err != nil {
		t.Fatal(err)
	}
	if job.Algo == "cc" && !slices.Equal(got[0], algorithms.Canonicalize(got[0])) {
		t.Fatal("cc vector is not canonical: some component is not named by its smallest vertex")
	}
}

func TestLaunchBitIdenticalToSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, algo := range []string{"bfs", "sssp", "cc"} {
		t.Run(algo, func(t *testing.T) {
			job := testJob(algo)
			res := launch(t, mp.LaunchSpec{Job: job, Workers: 2, RootSeed: 11})
			if res.Attempts != 1 {
				t.Fatalf("fault-free launch took %d attempts", res.Attempts)
			}
			checkOracle(t, job, res.Vectors)
		})
	}
}

func TestLaunchFourWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := testJob("bfs")
	job.Ranks = 8
	res := launch(t, mp.LaunchSpec{Job: job, Workers: 4, RootSeed: 13})
	if res.Attempts != 1 {
		t.Fatalf("fault-free launch took %d attempts", res.Attempts)
	}
	checkOracle(t, job, res.Vectors)
}

// TestLaunchKillBody is the acceptance drill: a worker SIGKILLs itself right
// after a mid-run checkpoint-commit vote releases. The launcher must notice
// the death, respawn the fleet, restore from the committed checkpoint, and
// still produce the bit-identical result.
func TestLaunchKillBody(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := testJob("sssp") // multi-epoch: the kill lands mid-run
	res := launch(t, mp.LaunchSpec{
		Job: job, Workers: 2, RootSeed: 17,
		Kill: &mp.KillSpec{Worker: 1, Epoch: 2, Mode: "body"},
	})
	if res.Attempts != 2 {
		t.Fatalf("kill-body launch took %d attempts, want 2 (kill + respawn)", res.Attempts)
	}
	if code := res.ExitCodes[0][1]; code != -1 {
		t.Fatalf("killed worker exit code %d, want -1 (signal)", code)
	}
	checkOracle(t, job, res.Vectors)
}

// TestLaunchKillEntry kills between the checkpoint-commit vote and its ack:
// every worker voted epoch 2 committed, but no release ever arrived, so the
// restart must fall back to the previously committed epoch.
func TestLaunchKillEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := testJob("sssp")
	res := launch(t, mp.LaunchSpec{
		Job: job, Workers: 2, RootSeed: 19,
		Kill: &mp.KillSpec{Worker: 0, Epoch: 2, Mode: "entry"},
	})
	if res.Attempts != 2 {
		t.Fatalf("kill-entry launch took %d attempts, want 2", res.Attempts)
	}
	checkOracle(t, job, res.Vectors)
}

// TestLaunchKillTerm SIGTERMs a worker mid-run: it must drain via the
// goodbye/ack handshake (a clean departure, exit code 0), after which the
// fleet respawns and completes.
func TestLaunchKillTerm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := testJob("sssp")
	res := launch(t, mp.LaunchSpec{
		Job: job, Workers: 2, RootSeed: 23,
		Kill: &mp.KillSpec{Worker: 1, Epoch: 1, Mode: "term"},
	})
	if res.Attempts != 2 {
		t.Fatalf("kill-term launch took %d attempts, want 2", res.Attempts)
	}
	if res.CleanDepartures != 1 {
		t.Fatalf("clean departures = %d, want 1", res.CleanDepartures)
	}
	if code := res.ExitCodes[0][1]; code != 0 {
		t.Fatalf("SIGTERMed worker exit code %d, want 0 (graceful goodbye)", code)
	}
	checkOracle(t, job, res.Vectors)
}

// TestLaunchWorkerSeedsDiffer pins satellite determinism: per-worker fault
// seeds derive from the root seed and rank range, distinct across workers
// and stable across respawns (same inputs, same seed).
func TestLaunchWorkerSeedsDiffer(t *testing.T) {
	s0 := harness.WorkerSeed(42, 0, 0, 2)
	s1 := harness.WorkerSeed(42, 1, 2, 4)
	if s0 == s1 {
		t.Fatal("workers 0 and 1 derived the same fault seed")
	}
	if s0 != harness.WorkerSeed(42, 0, 0, 2) {
		t.Fatal("worker seed not stable across respawns")
	}
	if s0 == harness.WorkerSeed(43, 0, 0, 2) {
		t.Fatal("worker seed ignores the root seed")
	}
}

// TestLaunchValidation pins the launcher's one validation step,
// LaunchSpec.Validate, which Launch calls before building anything: every
// row is refused, and none spawns a worker. Zero workers is not a refusal but
// the in-process mode, checked against the sequential oracle.
func TestLaunchValidation(t *testing.T) {
	job := func(mut func(*mp.JobSpec)) mp.JobSpec {
		j := testJob("bfs")
		mut(&j)
		return j
	}
	bfs := testJob("bfs")
	for _, c := range []struct {
		name string
		spec mp.LaunchSpec
	}{
		{"negative workers", mp.LaunchSpec{Job: bfs, Workers: -1}},
		{"unknown algorithm", mp.LaunchSpec{Job: testJob("nope"), Workers: 1}},
		{"fewer ranks than workers", mp.LaunchSpec{Job: job(func(j *mp.JobSpec) { j.Ranks = 2 }), Workers: 3}},
		{"out-of-range kill target", mp.LaunchSpec{Job: bfs, Workers: 2, Kill: &mp.KillSpec{Worker: 5, Epoch: 1, Mode: "body"}}},
		{"negative kill target", mp.LaunchSpec{Job: bfs, Workers: 2, Kill: &mp.KillSpec{Worker: -1, Epoch: 1, Mode: "body"}}},
		{"unknown kill mode", mp.LaunchSpec{Job: bfs, Workers: 2, Kill: &mp.KillSpec{Worker: 0, Epoch: 1, Mode: "bogus"}}},
		// A rate am.New would panic on.
		{"drop rate 1.5", mp.LaunchSpec{Job: job(func(j *mp.JobSpec) { j.Drop = 1.5 }), Workers: 2}},
		{"in-process negative ranks", mp.LaunchSpec{Job: job(func(j *mp.JobSpec) { j.Ranks = -1 })}},
		// In process, fleet-only settings are refused, not ignored.
		{"in-process kill", mp.LaunchSpec{Job: bfs, Kill: &mp.KillSpec{Worker: 0, Epoch: 1, Mode: "body"}}},
		{"in-process checkpoint dir", mp.LaunchSpec{Job: bfs, CheckpointDir: t.TempDir()}},
		{"in-process flight dir", mp.LaunchSpec{Job: job(func(j *mp.JobSpec) { j.FlightDir = t.TempDir() })}},
		{"in-process straggler feed", mp.LaunchSpec{Job: bfs, OnStraggler: func(mp.StragglerStat) {}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.spec.Validate(); err == nil {
				t.Fatal("Validate accepted it")
			}
			res, err := mp.Launch(c.spec)
			if err == nil {
				t.Fatal("Launch accepted it")
			}
			if res != nil && len(res.ExitCodes) > 0 {
				t.Fatalf("refused launch spawned workers: exit codes %v", res.ExitCodes)
			}
		})
	}
	t.Run("in-process run", func(t *testing.T) {
		res := launch(t, mp.LaunchSpec{Job: bfs})
		if res.Attempts != 1 || len(res.ExitCodes) != 0 {
			t.Fatalf("in-process launch: %d attempts, exit codes %v; want 1 attempt and no workers", res.Attempts, res.ExitCodes)
		}
		checkOracle(t, bfs, res.Vectors)
	})
}

// TestJobSpecVerify pins the oracle declpat-launch checks every result with:
// a correct result of each algorithm passes, and one flipped entry, a short
// vector or a missing one is caught.
func TestJobSpecVerify(t *testing.T) {
	for _, algo := range []string{"bfs", "sssp", "cc"} {
		t.Run(algo, func(t *testing.T) {
			job := testJob(algo)
			res := launch(t, mp.LaunchSpec{Job: job})
			if err := job.Verify(res.Vectors); err != nil {
				t.Fatalf("correct result refused: %v", err)
			}
			flipped := append([]int64(nil), res.Vectors[0]...)
			flipped[3]++
			for name, bad := range map[string][][]int64{
				"flipped entry": {flipped},
				"short vector":  {res.Vectors[0][1:]},
				"no vector":     nil,
			} {
				if err := job.Verify(bad); err == nil {
					t.Errorf("%s accepted", name)
				}
			}
		})
	}
}

// TestLaunchFleetObservability is the observability acceptance drill: a
// seeded 4-process run with a mid-epoch SIGKILL must produce (a) a merged,
// clock-aligned fleet timeline whose barrier spans from all ranks overlap
// within the measured alignment bound, (b) live straggler summaries covering
// every rank, and (c) a sealed flight dump for the killed worker — archived
// past the respawn — naming the epoch and phase state at its last commit.
func TestLaunchFleetObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	job := testJob("sssp")
	job.Ranks = 8
	dir := t.TempDir()
	job.TraceDir = filepath.Join(dir, "trace")
	job.FlightDir = filepath.Join(dir, "flight")
	res := launch(t, mp.LaunchSpec{
		Job: job, Workers: 4, RootSeed: 29,
		Kill: &mp.KillSpec{Worker: 2, Epoch: 2, Mode: "body"},
	})
	if res.Attempts != 2 {
		t.Fatalf("kill-body launch took %d attempts, want 2", res.Attempts)
	}
	checkOracle(t, job, res.Vectors)

	// Live straggler detection: the coordinator summarized at least one epoch
	// with every rank's kernel span accounted for.
	if len(res.Stragglers) == 0 {
		t.Fatal("no straggler summaries emitted")
	}
	for _, st := range res.Stragglers {
		if st.Ranks != job.Ranks {
			t.Fatalf("summary covers %d ranks, want %d: %+v", st.Ranks, job.Ranks, st)
		}
		if st.Imbalance < 1 {
			t.Fatalf("imbalance below 1 (max < mean is impossible): %+v", st)
		}
	}

	// The merged fleet timeline: fleet.trace.jsonl written by the launcher,
	// with offset-corrected records from every worker process.
	if res.ClockErrNS <= 0 {
		t.Fatal("launch reported no clock-alignment bound")
	}
	// One timeline: the trace directory holds the coordinator's merge and
	// nothing else (no per-worker files).
	if files, _ := os.ReadDir(job.TraceDir); len(files) != 1 {
		t.Fatalf("trace dir holds %d files, want the one fleet timeline: %v", len(files), files)
	}
	meta, recs, err := obs.ReadTraceDir(job.TraceDir)
	if err != nil {
		t.Fatalf("fleet trace: %v", err)
	}
	if meta.Label != "mp-fleet" {
		t.Fatalf("trace dir did not prefer the coordinator merge: label %q", meta.Label)
	}
	workers := map[int]bool{}
	for _, r := range recs {
		workers[r.W] = true
	}
	if len(workers) != 4 {
		t.Fatalf("fleet timeline has records from %d workers, want 4: %v", len(workers), workers)
	}

	// Barrier spans from all ranks must mutually overlap once aligned: every
	// rank's span contains the release instant, so max(start) <= min(end) up
	// to the clock-alignment error on each side plus release-propagation
	// slack. The check runs on the highest epoch every rank reported: only
	// the final (completing) attempt reached it, so each rank's last barrier
	// span there is the same collective instance — epochs touched by the
	// killed attempt mix spans from both attempts, ~100ms of restart latency
	// apart, and cannot be paired up by epoch number alone.
	type span struct{ start, end int64 }
	barriers := map[int64]map[int]span{}
	for _, r := range recs {
		if r.Kind != "phase" || r.Type != obs.PhaseBarrier.String() {
			continue
		}
		m := barriers[r.Arg2]
		if m == nil {
			m = map[int]span{}
			barriers[r.Arg2] = m
		}
		if s, ok := m[r.Rank]; !ok || r.TS > s.start {
			m[r.Rank] = span{r.TS, r.TS + r.Dur}
		}
	}
	bound := 2*res.ClockErrNS + 2_000_000 // per-side alignment error + 2ms propagation slack
	target := int64(-1)
	for epoch, m := range barriers {
		if len(m) == job.Ranks && epoch > target {
			target = epoch
		}
	}
	if target < 0 {
		t.Fatal("no epoch had barrier spans from all ranks")
	}
	maxStart, minEnd := int64(0), int64(1<<62)
	for _, s := range barriers[target] {
		if s.start > maxStart {
			maxStart = s.start
		}
		if s.end < minEnd {
			minEnd = s.end
		}
	}
	if maxStart > minEnd+bound {
		t.Fatalf("epoch %d: aligned barrier spans do not overlap (gap %dns > bound %dns)",
			target, maxStart-minEnd, bound)
	}
	t.Logf("epoch %d barrier spans from all %d ranks overlap within ±%dns", target, job.Ranks, bound)

	// The black box: the killed worker's dump from attempt 0 was archived
	// before the respawn and names the epoch it last committed (the kill
	// lands in epoch 2's body, so the dump is at most one epoch stale).
	d, err := obs.LoadFlightDump(filepath.Join(job.FlightDir, "flight-2.attempt0.dpfr"))
	if err != nil {
		t.Fatalf("killed worker's archived flight dump: %v", err)
	}
	if d.Worker != 2 {
		t.Fatalf("dump identifies worker %d, want 2", d.Worker)
	}
	if !strings.Contains(d.Reason, "commit") {
		t.Fatalf("dump reason %q does not name a commit point", d.Reason)
	}
	if d.Epoch < 1 || d.Epoch > 2 {
		t.Fatalf("dump epoch %d, want the kill epoch or one before (1..2)", d.Epoch)
	}
	phases := 0
	for _, ev := range d.Events {
		if ev.Kind == "phase" {
			phases++
		}
	}
	if phases == 0 {
		t.Fatalf("killed worker's dump has no phase landmarks among %d events", len(d.Events))
	}

	// The surviving attempt left a fresh sealed dump for every worker.
	for w := 0; w < 4; w++ {
		d, err := obs.LoadFlightDump(filepath.Join(job.FlightDir, fmt.Sprintf("flight-%d.dpfr", w)))
		if err != nil {
			t.Fatalf("worker %d final dump: %v", w, err)
		}
		if d.Reason != "run complete" {
			t.Fatalf("worker %d final dump reason %q, want the clean-completion persist", w, d.Reason)
		}
	}
}
