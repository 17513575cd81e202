package main

import (
	"fmt"
	"strings"
	"testing"

	"declpat"
	"declpat/internal/obs"
)

// traced runs a job in process through declpat-launch's runner with a trace
// directory, as declpat-launch -workers 0 -trace-dir does, and reads the one
// timeline it leaves back the way -in DIR does.
func traced(t *testing.T, job declpat.MPJobSpec) (obs.Meta, []obs.Record) {
	t.Helper()
	job.TraceDir = t.TempDir()
	if _, err := declpat.Launch(declpat.MPLaunchSpec{Job: job}); err != nil {
		t.Fatal(err)
	}
	meta, recs, err := readTrace(job.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	return meta, recs
}

// TestTracedBFSLineageConnected is the end-to-end causal-DAG check on a real
// workload: every non-root handler event in a small traced BFS resolves to a
// recorded parent, each epoch's critical path starts at a root send and
// ends in the epoch's final quiescence, and the phase timers were on.
func TestTracedBFSLineageConnected(t *testing.T) {
	meta, recs := traced(t, declpat.MPJobSpec{Algo: "bfs", Scale: 8, EdgeFactor: 8, Seed: 42, Ranks: 2, Threads: 1})
	lin := obs.BuildLineage(meta, recs)
	if lin.Handlers() == 0 {
		t.Fatal("traced BFS produced no handler events")
	}
	// A traced launch runs with timing on, so -phases has spans to report.
	if tables := obs.PhaseTables(meta, recs); tables[0].Rows() == 0 || tables[1].Rows() == 0 {
		t.Fatal("traced BFS timeline has no phase spans")
	}
	if !lin.Connected() {
		t.Fatalf("%d handler events have unresolvable parents (dropped=%d)",
			lin.Orphans, meta.Dropped)
	}
	// Spot-check the invariant directly, not just through the aggregate.
	for _, n := range lin.ByID {
		if obs.IsRootLineageID(n.Parent) || n.Parent == 0 {
			continue
		}
		if _, ok := lin.ByID[n.Parent]; !ok {
			t.Fatalf("handler %#x has unresolvable parent %#x", n.ID, n.Parent)
		}
	}
	for _, e := range lin.Epochs {
		cp := lin.CriticalPathOf(e)
		if cp == nil {
			continue // epoch without handler traffic (e.g. final empty frontier)
		}
		if !obs.IsRootLineageID(cp.Root) {
			t.Fatalf("epoch %d: critical path does not start at a root send (%#x)", e.Epoch, cp.Root)
		}
		sink := cp.Hops[len(cp.Hops)-1].Node
		if sink.End+cp.TailNs != e.End {
			t.Fatalf("epoch %d: path does not end in the epoch's quiescence (sink %d + tail %d != end %d)",
				e.Epoch, sink.End, cp.TailNs, e.End)
		}
	}
}

// TestCriticalPathReport drives the CLI's -critical-path mode end to end on
// traced workloads and on lineage-free input.
func TestCriticalPathReport(t *testing.T) {
	meta, recs := traced(t, declpat.MPJobSpec{Algo: "bfs", Scale: 8, EdgeFactor: 8, Seed: 42, Ranks: 2, Threads: 1})
	var sb strings.Builder
	if err := criticalPathReport(&sb, meta, recs, -1, 48); err != nil {
		t.Fatalf("report failed: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"critical path", "rank slack", "chain-depth", "quiescence"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Selecting an epoch outside the trace must error, not print garbage,
	// and name the epochs the trace does hold.
	err := criticalPathReport(&strings.Builder{}, meta, recs, 999, 48)
	if err == nil {
		t.Fatal("bogus -path-epoch accepted")
	}
	lin := obs.BuildLineage(meta, recs)
	want := fmt.Sprintf("(epochs %d..%d)", lin.Epochs[0].Epoch, lin.Epochs[len(lin.Epochs)-1].Epoch)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("bogus -path-epoch error %q does not name the trace's epochs %s", err, want)
	}
	// A timeline that does not start at epoch 0 — a fleet's after a
	// restart, or a ring that overwrote the early epochs — names its own:
	// a multi-epoch sssp run with its first epoch cut away.
	smeta, srecs := traced(t, declpat.MPJobSpec{Algo: "sssp", Scale: 8, EdgeFactor: 8, Seed: 42, Ranks: 2, Threads: 1})
	cut := obs.BuildLineage(smeta, srecs).Epochs[0].End
	var late []obs.Record
	for _, r := range srecs {
		if r.TS >= cut {
			late = append(late, r)
		}
	}
	lateLin := obs.BuildLineage(smeta, late)
	first, last := lateLin.Epochs[0].Epoch, lateLin.Epochs[len(lateLin.Epochs)-1].Epoch
	if first == 0 {
		t.Fatal("trimmed timeline still holds epoch 0")
	}
	err = criticalPathReport(&strings.Builder{}, smeta, late, 999, 48)
	if want := fmt.Sprintf("(epochs %d..%d)", first, last); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("bogus -path-epoch on a late-starting timeline: error %v, want it to name %s", err, want)
	}

	// A trace without lineage (handler records stripped) must error so the
	// CLI exits non-zero instead of printing empty tables.
	var bare []obs.Record
	for _, r := range recs {
		if r.Kind != "handler" {
			bare = append(bare, r)
		}
	}
	if err := criticalPathReport(&strings.Builder{}, meta, bare, -1, 48); err == nil {
		t.Fatal("lineage-free trace accepted")
	}
}
