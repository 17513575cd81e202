package main

import (
	"strings"
	"testing"

	"declpat/internal/obs"
)

// TestTracedBFSLineageConnected is the end-to-end causal-DAG check on a real
// workload: every non-root handler event in a small traced BFS resolves to a
// recorded parent, and each epoch's critical path starts at a root send and
// ends in the epoch's final quiescence.
func TestTracedBFSLineageConnected(t *testing.T) {
	u, err := runWorkload("bfs", 8, 8, 42, 2, 1, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	meta, recs := u.ExportTrace("bfs")
	lin := obs.BuildLineage(meta, recs)
	if lin.Handlers() == 0 {
		t.Fatal("traced BFS produced no handler events")
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
	u, err := runWorkload("bfs", 8, 8, 42, 2, 1, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	meta, recs := u.ExportTrace("bfs")
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

	// Selecting an epoch outside the trace must error, not print garbage.
	if err := criticalPathReport(&strings.Builder{}, meta, recs, 999, 48); err == nil {
		t.Fatal("bogus -path-epoch accepted")
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

// TestRunWorkloadRing checks the -cap plumb-through: a tiny capacity, split
// into a 128-event ring per rank, bounds retention and reports drops.
func TestRunWorkloadRing(t *testing.T) {
	u, err := runWorkload("cc", 7, 4, 1, 2, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	if u.TraceDropped() == 0 {
		t.Fatal("tiny ring did not overflow; -cap not wired through")
	}
	if evs := u.Trace(); len(evs) > 2*128 {
		t.Fatalf("retained %d events with -cap 256 over 2 ranks", len(evs))
	}
}
