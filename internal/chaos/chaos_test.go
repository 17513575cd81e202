package chaos

import (
	"fmt"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/seq"
)

// baseSeed drives every seed in this file (workloads and fault plans) via
// harness.DeriveSeed; failure messages include the derived fault seed.
const baseSeed = 2026

func workload(tb testing.TB, scale, ef int) Workload {
	tb.Helper()
	n, edges := gen.RMAT(scale, ef, gen.Weights{Min: 1, Max: 100},
		harness.DeriveSeed(baseSeed, "chaos/workload"))
	return Workload{N: n, Edges: edges}
}

// faultGrid is the acceptance grid: drop rates up to 20% with duplication
// and reordering enabled throughout.
func faultGrid(label string) []*am.FaultPlan {
	var plans []*am.FaultPlan
	for _, drop := range []float64{0.01, 0.05, 0.20} {
		plans = append(plans, &am.FaultPlan{
			Seed:  harness.DeriveSeed(baseSeed, fmt.Sprintf("%s/drop=%g", label, drop)),
			Drop:  drop,
			Dup:   0.10,
			Delay: 0.10,
		})
	}
	return plans
}

func scenarios(plan *am.FaultPlan) []Scenario {
	return []Scenario{
		{Ranks: 4, Threads: 2, Coalesce: 4, Detector: am.DetectorAtomic, Plan: plan},
		{Ranks: 3, Threads: 0, Coalesce: 4, Detector: am.DetectorFourCounter, Plan: plan},
	}
}

// check asserts got is bit-identical to the fault-free result, naming the
// scenario (including the fault seed) on failure.
func check(t *testing.T, alg string, sc Scenario, got, want []int64) {
	t.Helper()
	if !Equal(got, want) {
		d := Diff(got, want, 5)
		t.Fatalf("%s under %s: results diverge from fault-free run at %d vertices (first %v); rerun with this scenario's seed to reproduce",
			alg, sc, len(Diff(got, want, len(got))), d)
	}
}

func TestBFSUnderChaos(t *testing.T) {
	w := workload(t, 9, 8)
	src := distgraph.Vertex(3)
	for _, plan := range faultGrid("bfs") {
		for _, sc := range scenarios(plan) {
			base := sc
			base.Plan = nil
			want, _ := RunBFS(w, base, src)
			got, stats := RunBFS(w, sc, src)
			check(t, "BFS", sc, got, want)
			if plan.Drop >= 0.05 && stats.Retransmits == 0 {
				t.Fatalf("BFS under %s: no retransmits at %g%% drop — faults not injected?",
					sc, 100*plan.Drop)
			}
		}
	}
}

func TestSSSPUnderChaos(t *testing.T) {
	w := workload(t, 9, 8)
	src := distgraph.Vertex(3)
	// Validate the baseline itself against Dijkstra once.
	want, _ := RunSSSP(w, Scenario{Ranks: 4, Threads: 2, Detector: am.DetectorAtomic}, src, 30)
	dij := seq.Dijkstra(w.N, w.Edges, src)
	for v, d := range dij {
		if d == seq.Inf {
			continue
		}
		if want[v] != d {
			t.Fatalf("fault-free SSSP disagrees with Dijkstra at %d", v)
		}
	}
	for _, plan := range faultGrid("sssp") {
		for _, sc := range scenarios(plan) {
			base := sc
			base.Plan = nil
			want, _ := RunSSSP(w, base, src, 30)
			got, _ := RunSSSP(w, sc, src, 30)
			check(t, "SSSP", sc, got, want)
		}
	}
}

func TestCCUnderChaos(t *testing.T) {
	w := workload(t, 9, 8)
	for _, plan := range faultGrid("cc") {
		for _, sc := range scenarios(plan) {
			base := sc
			base.Plan = nil
			want, _ := RunCC(w, base)
			got, _ := RunCC(w, sc)
			check(t, "CC", sc, got, want)
		}
	}
}

// TestCorruptionUnderChaos drops 5% and corrupts 15% of payloads in flight:
// the checksum must catch corruption and retransmits must recover exact
// results for BFS, SSSP and CC on both detectors.
func TestCorruptionUnderChaos(t *testing.T) {
	corruptionGrid(t, &am.FaultPlan{
		Seed:    harness.DeriveSeed(baseSeed, "corrupt"),
		Drop:    0.05,
		Corrupt: 0.15,
	})
}

// TestWireCodecsUnderChaos adds duplication and reordering to corruption:
// drop+dup+delay+corrupt, for BFS, SSSP and CC on both detectors.
func TestWireCodecsUnderChaos(t *testing.T) {
	corruptionGrid(t, &am.FaultPlan{
		Seed:    harness.DeriveSeed(baseSeed, "wirecodec"),
		Drop:    0.05,
		Dup:     0.10,
		Delay:   0.10,
		Corrupt: 0.10,
	})
}

// corruptionGrid runs BFS, SSSP and CC under plan on both detectors. Every
// envelope that crosses a link is the fixed codec's bytes: in every cell the
// checksum must catch corruption, and retransmits must recover results
// bit-identical to the trusted fault-free run.
func corruptionGrid(t *testing.T, plan *am.FaultPlan) {
	t.Helper()
	w := workload(t, 8, 6)
	src := distgraph.Vertex(3)
	algos := []struct {
		name string
		run  func(Scenario) ([]int64, am.Snapshot)
	}{
		{"BFS", func(sc Scenario) ([]int64, am.Snapshot) { return RunBFS(w, sc, src) }},
		{"SSSP", func(sc Scenario) ([]int64, am.Snapshot) { return RunSSSP(w, sc, src, 30) }},
		{"CC", func(sc Scenario) ([]int64, am.Snapshot) { return RunCC(w, sc) }},
	}
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		sc := Scenario{Ranks: 3, Threads: 1, Coalesce: 4, Detector: det, Plan: plan}
		base := sc
		base.Plan = nil
		for _, a := range algos {
			want, _ := a.run(base)
			got, stats := a.run(sc)
			check(t, a.name, sc, got, want)
			if stats.CorruptionsDetected == 0 {
				t.Fatalf("%s under %s: no corruptions detected at %g%% corruption", a.name, sc, 100*plan.Corrupt)
			}
		}
	}
}

// TestChaosResultsDeterministic runs the same faulty scenario twice and
// requires bit-identical results — the reliable protocol makes the
// *outcome* a pure function of (workload, seed), even though scheduling
// varies between runs.
func TestChaosResultsDeterministic(t *testing.T) {
	w := workload(t, 9, 8)
	plan := faultGrid("determinism")[2] // 20% drop
	for _, sc := range scenarios(plan) {
		a, _ := RunSSSP(w, sc, 7, 25)
		b, _ := RunSSSP(w, sc, 7, 25)
		check(t, "SSSP(rerun)", sc, a, b)
	}
}
