package mp

import (
	"encoding/json"
	"strings"
	"testing"

	"declpat/internal/obs"
)

// TestTimelineCountsOverwrites runs a traced job in process with a tiny trace
// ring: the one timeline it leaves must count the events the ring overwrote,
// hold no more than the ring retained, and its banner must carry the
// overwrite warning declpat-trace prints.
func TestTimelineCountsOverwrites(t *testing.T) {
	defer func(c int) { traceCap = c }(traceCap)
	traceCap = 256 // 128 events per rank over 2 ranks
	job := JobSpec{Algo: "cc", Scale: 7, EdgeFactor: 4, Seed: 1, Ranks: 2, Threads: 1, TraceDir: t.TempDir()}
	if _, err := Launch(LaunchSpec{Job: job}); err != nil {
		t.Fatal(err)
	}
	meta, recs, err := obs.ReadTraceDir(job.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Dropped == 0 {
		t.Fatal("tiny ring overflowed but the timeline counts no overwritten events")
	}
	if len(recs) > traceCap {
		t.Fatalf("timeline holds %d records from rings of %d events", len(recs), traceCap)
	}
	if b := meta.Banner(len(recs)); !strings.Contains(b, "events overwritten by the ring") {
		t.Fatalf("banner %q lacks the overwrite warning", b)
	}
}

// TestCoordSumsStreamedOverwrites: the overwrite counts a worker ships with
// its trace batches add up into the attempt's outcome, which Launch sums into
// the fleet timeline's meta — the attempt ending in an abort included.
func TestCoordSumsStreamedOverwrites(t *testing.T) {
	c, outc := testCoord(t, 1, 2)
	f := dialFake(t, c.addr(), 0)
	registerAddrs(t, f)
	for _, dropped := range []int64{3, 0, 4} {
		f.send(fTrace, traceMsg{Worker: 0, Lo: 0, Hi: 2, Records: json.RawMessage(`[]`), Dropped: dropped})
	}
	f.conn.Close()
	if out := waitOutcome(t, outc, "connection lost"); out.dropped != 7 {
		t.Fatalf("outcome counts %d overwritten events, want 3+0+4", out.dropped)
	}
}
