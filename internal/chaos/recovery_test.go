package chaos

import (
	"fmt"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
)

// Crash-recovery acceptance: under deterministic crash-stop schedules —
// including mid-epoch crashes with handlers half applied — every algorithm
// must recover via epoch rollback/replay and produce results bit-identical
// to the fault-free run, on both termination detectors.

// crashSchedules are the seeded crash schedules of the acceptance matrix.
// Ranks referenced here must exist in every recoveryScenarios entry.
func crashSchedules() map[string]*am.FaultPlan {
	return map[string]*am.FaultPlan{
		// Rank 1 dies the moment epoch 0 opens, before its body runs.
		"epoch-entry": {
			Seed:    harness.DeriveSeed(baseSeed, "recovery/entry"),
			Crashes: []am.Crash{{Rank: 1, Epoch: 0}},
		},
		// Mid-epoch crashes with handlers half applied, on top of a lossy
		// network: rank 2 dies after its 5th handled message of epoch 0 and
		// rank 0 after its 3rd of epoch 1 (algorithms with a single epoch
		// simply never arm the second entry).
		"mid-epoch": {
			Seed:    harness.DeriveSeed(baseSeed, "recovery/mid"),
			Drop:    0.05,
			Dup:     0.05,
			Crashes: []am.Crash{{Rank: 2, Epoch: 0, AfterHandled: 5}, {Rank: 0, Epoch: 1, AfterHandled: 3}},
		},
	}
}

// recoveryScenarios covers both detectors, threaded and unthreaded.
func recoveryScenarios(plan *am.FaultPlan) []Scenario {
	return []Scenario{
		{Ranks: 4, Threads: 2, Coalesce: 4, Detector: am.DetectorAtomic, Plan: plan, Recovery: true},
		{Ranks: 3, Threads: 0, Coalesce: 4, Detector: am.DetectorFourCounter, Plan: plan, Recovery: true},
	}
}

// checkRecovered asserts the crash schedule actually executed and was
// recovered: at least one injected crash, at least one epoch abort, at least
// one completed recovery, and checkpoints taken.
func checkRecovered(t *testing.T, alg string, sc Scenario, stats am.Snapshot) {
	t.Helper()
	if stats.RankCrashes == 0 {
		t.Fatalf("%s under %s: crash schedule never fired (handled-message thresholds too high for this workload?)", alg, sc)
	}
	if stats.EpochAborts == 0 || stats.Recoveries == 0 {
		t.Fatalf("%s under %s: crash fired but no epoch abort/recovery (aborts=%d recoveries=%d)",
			alg, sc, stats.EpochAborts, stats.Recoveries)
	}
	if stats.Checkpoints == 0 {
		t.Fatalf("%s under %s: recovery ran without checkpoints", alg, sc)
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	w := workload(t, 9, 8)
	src := distgraph.Vertex(3)
	for name, plan := range crashSchedules() {
		for _, sc := range recoveryScenarios(plan) {
			t.Run(fmt.Sprintf("%s/%s", name, sc.Detector), func(t *testing.T) {
				base := sc
				base.Plan, base.Recovery = nil, false

				want, _ := RunBFS(w, base, src)
				got, stats := RunBFS(w, sc, src)
				check(t, "BFS", sc, got, want)
				checkRecovered(t, "BFS", sc, stats)

				wantD, _ := RunSSSP(w, base, src, 30)
				gotD, statsD := RunSSSP(w, sc, src, 30)
				check(t, "SSSP", sc, gotD, wantD)
				checkRecovered(t, "SSSP", sc, statsD)

				wantC, _ := RunCC(w, base)
				gotC, statsC := RunCC(w, sc)
				check(t, "CC", sc, gotC, wantC)
				checkRecovered(t, "CC", sc, statsC)

				if name != "mid-epoch" {
					return
				}
				// The other two Δ-stepping strategies' bucket checkpoints:
				// light/heavy's settled set is not saved, distributed's
				// buckets are per body thread.
				for alg, mode := range map[string]algorithms.SSSPMode{
					"SSSP(light-heavy)": algorithms.SSSPDeltaLightHeavy,
					"SSSP(distributed)": algorithms.SSSPDeltaDistributed,
				} {
					want, _ := RunSSSPMode(w, base, src, 30, mode)
					got, stats := RunSSSPMode(w, sc, src, 30, mode)
					check(t, alg, sc, got, want)
					checkRecovered(t, alg, sc, stats)
				}
			})
		}
	}
}

// TestCrashRecoveryDeterministic reruns a crashy scenario and requires
// bit-identical results: recovery replay keeps the outcome a pure function
// of (workload, plan).
func TestCrashRecoveryDeterministic(t *testing.T) {
	w := workload(t, 9, 8)
	plan := crashSchedules()["mid-epoch"]
	for _, sc := range recoveryScenarios(plan) {
		a, _ := RunSSSP(w, sc, 7, 25)
		b, _ := RunSSSP(w, sc, 7, 25)
		check(t, "SSSP(rerun)", sc, a, b)
	}
}

// TestLinkDeathRecovery severs the 0→1 link for epoch 0: the sender must
// exhaust the retransmit ceiling and declare the link dead (a structured
// fault, not a panic), recovery must heal the link and replay, and the
// result must match the fault-free run. On the channel transport a tick is
// one poll, so the default ceiling is reached quickly.
func TestLinkDeathRecovery(t *testing.T) {
	w := workload(t, 8, 6)
	src := distgraph.Vertex(1)
	plan := &am.FaultPlan{
		Seed:      harness.DeriveSeed(baseSeed, "recovery/linkdead"),
		DeadLinks: []am.DeadLink{{Src: 0, Dest: 1, Epoch: 0}},
	}
	for _, sc := range recoveryScenarios(plan) {
		base := sc
		base.Plan, base.Recovery = nil, false
		want, _ := RunBFS(w, base, src)
		got, stats := RunBFS(w, sc, src)
		check(t, "BFS", sc, got, want)
		if stats.LinkDeaths == 0 {
			t.Fatalf("BFS under %s: severed link never hit the retransmit ceiling", sc)
		}
		if stats.Recoveries == 0 {
			t.Fatalf("BFS under %s: link death raised but never recovered", sc)
		}
	}
}
