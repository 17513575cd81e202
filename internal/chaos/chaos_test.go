package chaos

import (
	"fmt"
	"testing"

	"declpat/internal/am"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/pattern"
)

// baseSeed drives every seed in this package's row sets (workloads and fault
// plans) via harness.DeriveSeed; failure messages include the derived fault
// seed.
const baseSeed = 2026

func workload(scale, ef int) *Workload {
	n, edges := gen.RMAT(scale, ef, gen.Weights{Min: 1, Max: 100},
		harness.DeriveSeed(baseSeed, "chaos/workload"))
	return &Workload{N: n, Edges: edges, Src: 3}
}

// TestOracleMatrix runs every fault-free cell's shipped plan once: each
// kernel on trusted channels, the reliable protocol over channels and Unix
// sockets, at ranks {1, 2, 4} × threads {1, 2}. The row sets
// TestDirectDifferential, TestFilterDifferential and TestCoalesceDifferential
// (internal/algorithms) run the same cells with one option off. Run under
// -race in CI: directly applied hops are foreign-thread atomics on another
// rank's shard, a rank's body and handler threads share its filter table,
// and a pending word is shared by every thread that can change its vertex.
func TestOracleMatrix(t *testing.T) {
	Rows(t, Grid(pattern.DefaultPlanOptions(), "chan", "chan-reliable", "unix"))
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

// underChaos is k's shipped plan under every plan of faultGrid(label), on 4
// ranks × 2 threads with the atomic detector and 3 × 0 with the four-counter
// one, envelopes of 4.
func underChaos(k Kernel, w *Workload, label string) []Cell {
	var cells []Cell
	for _, plan := range faultGrid(label) {
		for _, sc := range []Scenario{
			{Ranks: 4, Threads: 2, Batch: 4, Detector: am.DetectorAtomic, Faults: plan},
			{Ranks: 3, Threads: 0, Batch: 4, Detector: am.DetectorFourCounter, Faults: plan},
		} {
			cells = append(cells, Cell{Name: fmt.Sprintf("drop=%g/%dx%d/%s", plan.Drop, sc.Ranks, sc.Threads, sc.Detector),
				Kernel: k, W: w, Plan: pattern.DefaultPlanOptions(), Scenario: sc})
		}
	}
	return cells
}

func TestBFSUnderChaos(t *testing.T)  { Rows(t, underChaos(BFS, workload(9, 8), "bfs")) }
func TestSSSPUnderChaos(t *testing.T) { Rows(t, underChaos(SSSPDelta, workload(9, 8), "sssp")) }
func TestCCUnderChaos(t *testing.T)   { Rows(t, underChaos(CC, workload(9, 8), "cc")) }

// TestCorruptionUnderChaos drops 5% and corrupts 15% of payloads in flight:
// the checksum must catch corruption and retransmits must recover exact
// results for BFS, SSSP and CC on both detectors.
func TestCorruptionUnderChaos(t *testing.T) {
	Rows(t, corruptionGrid(&am.FaultPlan{
		Seed:    harness.DeriveSeed(baseSeed, "corrupt"),
		Drop:    0.05,
		Corrupt: 0.15,
	}))
}

// TestWireCodecsUnderChaos adds duplication and reordering to corruption:
// drop+dup+delay+corrupt, for BFS, SSSP and CC on both detectors.
func TestWireCodecsUnderChaos(t *testing.T) {
	Rows(t, corruptionGrid(&am.FaultPlan{
		Seed:    harness.DeriveSeed(baseSeed, "wirecodec"),
		Drop:    0.05,
		Dup:     0.10,
		Delay:   0.10,
		Corrupt: 0.10,
	}))
}

// corruptionGrid is BFS, SSSP and CC under plan on 3 ranks × 1 thread, both
// detectors. Every envelope that crosses a link is the fixed codec's bytes,
// so in every cell the checksum must catch corruption.
func corruptionGrid(plan *am.FaultPlan) []Cell {
	w := workload(8, 6)
	var cells []Cell
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		for _, k := range []Kernel{BFS, SSSPDelta, CC} {
			cells = append(cells, Cell{Name: k.Name + "/" + det.String(), Kernel: k, W: w, Plan: pattern.DefaultPlanOptions(),
				Scenario: Scenario{Ranks: 3, Threads: 1, Batch: 4, Detector: det, Faults: plan}})
		}
	}
	return cells
}

// TestChaosResultsDeterministic runs SSSP twice in one universe at 20%
// drop: the reliable protocol makes the outcome a pure function of
// (workload, seed) although scheduling varies between runs, and the second
// solve starts from tables that must have forgotten the first, so both
// answers equal the oracle.
func TestChaosResultsDeterministic(t *testing.T) {
	w := workload(9, 8)
	w.Src = 7
	cells := underChaos(SSSPDelta, w, "determinism")[4:] // 20% drop
	for i := range cells {
		cells[i].Runs = 2
	}
	Rows(t, cells)
}

// engagedAcrossDimensions is k's shipped plan where the chaos row sets run:
// the trusted baseline, a lossy network and Unix sockets with flapping links.
func engagedAcrossDimensions(k Kernel, label string) []Cell {
	w := workload(9, 8)
	rows := []Cell{
		{Name: "baseline", Scenario: Scenario{Ranks: 4, Threads: 2, Batch: 4}},
		{Name: "faults", Scenario: Scenario{Ranks: 4, Threads: 2, Batch: 4, Faults: &am.FaultPlan{
			Seed: harness.DeriveSeed(baseSeed, label+"/faults"), Drop: 0.05, Dup: 0.10, Delay: 0.10}}},
		{Name: "unix+flaky", Scenario: Scenario{Ranks: 3, Threads: 2, Batch: 4, Transport: "unix", SockFaults: flakySockFaults()}},
	}
	for i := range rows {
		rows[i].Kernel, rows[i].W, rows[i].Plan = k, w, pattern.DefaultPlanOptions()
	}
	return rows
}

// TestFilterEngagedAcrossDimensions: every chaos row set runs the engine as
// shipped, send-side filter on, so their oracle equality is a statement
// about filtered runs — provided the filter engages. These rows pin that it
// does for BFS on a lossy network and on flapping sockets, and that the
// co-resident baseline applies its relaxations in place and filters nothing.
func TestFilterEngagedAcrossDimensions(t *testing.T) {
	if !pattern.DefaultPlanOptions().Filter {
		t.Fatal("the shipped plan options no longer filter: the chaos row sets stopped covering the send-side filter")
	}
	Rows(t, engagedAcrossDimensions(BFS, "filter"))
}

// TestCoalesceEngagedAcrossDimensions: likewise for coalesced
// re-invocation. Fixed-point SSSP improves a vertex often enough for
// requests to meet: on the trusted baseline the applying thread requests the
// re-run, on a lossy network a dropped and retransmitted entry clears its
// word late and every request in between merges into it.
func TestCoalesceEngagedAcrossDimensions(t *testing.T) {
	if !pattern.DefaultPlanOptions().Coalesce {
		t.Fatal("the shipped plan options no longer coalesce: the chaos row sets stopped covering coalesced re-invocation")
	}
	Rows(t, engagedAcrossDimensions(SSSPFixedPoint, "coalesce"))
}
