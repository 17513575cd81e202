package obs

// Fleet trace assembly tests: offset alignment, directory reading, the
// incremental ring cursor, and the Chrome exporter's multi-process output.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAlignRecords(t *testing.T) {
	recs := []Record{{Kind: "phase", TS: 100, Rank: 1}, {Kind: "epoch", TS: 200, Rank: 2}}
	out := AlignRecords(recs, 3, 1_000)
	for i, r := range out {
		if r.W != 3 {
			t.Fatalf("record %d worker %d, want 3", i, r.W)
		}
	}
	if out[0].TS != 1_100 || out[1].TS != 1_200 {
		t.Fatalf("timestamps not shifted: %d, %d", out[0].TS, out[1].TS)
	}
}

func writeTraceFile(t *testing.T, dir string, name string, meta Meta, recs []Record) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteJSONL(f, meta, recs); err != nil {
		t.Fatal(err)
	}
}

// TestReadTraceDirPrefersFleetFile: the directory form reads the one
// timeline; a per-worker file an older launcher left beside it is ignored.
func TestReadTraceDirPrefersFleetFile(t *testing.T) {
	dir := t.TempDir()
	writeTraceFile(t, dir, "worker-0.trace.jsonl",
		Meta{Label: "mp-worker-0", Ranks: 2}, []Record{{Kind: "phase", TS: 1, Rank: 0}})
	writeTraceFile(t, dir, "fleet.trace.jsonl",
		Meta{Label: "mp-fleet", Ranks: 2},
		[]Record{{Kind: "phase", TS: 1, Rank: 0}, {Kind: "phase", TS: 2, Rank: 1, W: 1}})
	meta, recs, err := ReadTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Label != "mp-fleet" || len(recs) != 2 {
		t.Fatalf("got %q with %d records, want the coordinator's fleet merge", meta.Label, len(recs))
	}
}

func TestReadTraceDirEmpty(t *testing.T) {
	if _, _, err := ReadTraceDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestRingsShardSince(t *testing.T) {
	r := NewRings[int](1, 4)
	for i := 0; i < 3; i++ {
		r.Append(0, i)
	}
	out, cur := r.ShardSince(0, 0)
	if len(out) != 3 || out[0] != 0 || out[2] != 2 || cur != 3 {
		t.Fatalf("first poll: %v cur=%d", out, cur)
	}
	// Nothing new: empty batch, cursor unchanged.
	out, cur = r.ShardSince(0, cur)
	if len(out) != 0 || cur != 3 {
		t.Fatalf("idle poll: %v cur=%d", out, cur)
	}
	// Overflow the ring: events 3..9 appended, ring holds 6..9; the cursor at
	// 3 clamps to the oldest retained (6) — the flusher observes the gap.
	for i := 3; i < 10; i++ {
		r.Append(0, i)
	}
	out, cur = r.ShardSince(0, cur)
	if len(out) != 4 || out[0] != 6 || out[3] != 9 || cur != 10 {
		t.Fatalf("post-wrap poll: %v cur=%d, want 6..9 cur=10", out, cur)
	}
}

// TestToChromeFleet pins the multi-process Chrome export: records from
// different workers land in different Perfetto process groups, with process
// metadata naming each worker.
func TestToChromeFleet(t *testing.T) {
	meta := Meta{Label: "fleet", Ranks: 4}
	recs := []Record{
		{Kind: "phase", Type: "kernel", TS: 100, Dur: 10, Rank: 0, W: 0},
		{Kind: "phase", Type: "kernel", TS: 105, Dur: 12, Rank: 2, W: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, meta, recs); err != nil {
		t.Fatal(err)
	}
	var trace ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("chrome export does not parse: %v", err)
	}
	pids := map[int]bool{}
	procNames := 0
	for _, ev := range trace.TraceEvents {
		pids[ev.PID] = true
		if ev.Name == "process_name" {
			procNames++
			name, _ := ev.Args["name"].(string)
			if !strings.Contains(name, "worker") {
				t.Fatalf("process_name does not name the worker: %q", name)
			}
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("fleet export pids %v, want workers on pids 1 and 2", pids)
	}
	if procNames != 2 {
		t.Fatalf("%d process_name metadata events, want 2", procNames)
	}
}

// TestToChromeSingleProcessUnchanged pins backward compatibility: without
// worker stamps every event stays in the legacy single process (pid 1).
func TestToChromeSingleProcessUnchanged(t *testing.T) {
	meta := Meta{Label: "solo", Ranks: 2}
	recs := []Record{{Kind: "phase", Type: "kernel", TS: 100, Dur: 10, Rank: 1}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, meta, recs); err != nil {
		t.Fatal(err)
	}
	var trace ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.TraceEvents {
		if ev.PID != 1 {
			t.Fatalf("single-process export used pid %d: %+v", ev.PID, ev)
		}
	}
}
