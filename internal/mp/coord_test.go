package mp

// Control-plane fault interleavings (in-process, wire-level): a hand-rolled
// worker speaks raw frames at a real coordinator and misbehaves — duplicated
// and reordered round entries, lost frames, one-way partitions during
// detector quiescence. Every interleaving must end the attempt in a clean
// error outcome within the round timeout; a hung epoch is the one forbidden
// result, so every test runs under a hard deadline.

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"declpat/internal/am"
)

// testCoord starts a coordinator with test-speed timers and returns it plus
// its outcome channel.
func testCoord(t *testing.T, workers, ranks int) (*coordinator, <-chan attemptOutcome) {
	t.Helper()
	c, err := newCoordinator(coordSpec{
		Workers:      workers,
		Ranks:        ranks,
		RunID:        1,
		JobJSON:      []byte(`{"algo":"bfs"}`),
		RoundTimeout: 300 * time.Millisecond,
		Liveness:     2 * time.Second,
		Committed:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	outc := make(chan attemptOutcome, 1)
	go func() { outc <- c.run() }()
	return c, outc
}

// fakeWorker is a raw-frame control client for protocol tests.
type fakeWorker struct {
	t    *testing.T
	conn net.Conn
	w    welcome
}

func dialFake(t *testing.T, addr string, worker int) *fakeWorker {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	f := &fakeWorker{t: t, conn: conn}
	f.send(fHello, hello{Worker: worker})
	_, body := f.recv(fWelcome)
	if err := decodeBody(fWelcome, body, &f.w); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fakeWorker) send(kind byte, body any) {
	f.t.Helper()
	if err := writeFrame(f.conn, kind, body); err != nil {
		f.t.Fatalf("send %s: %v", kindName(kind), err)
	}
}

// recv reads frames (skipping heartbeats) until want arrives or 2s passes.
func (f *fakeWorker) recv(want byte) (byte, []byte) {
	f.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		f.conn.SetReadDeadline(deadline)
		kind, body, err := readFrame(f.conn)
		if err != nil {
			f.t.Fatalf("waiting for %s: %v", kindName(want), err)
		}
		if kind == fHeartbeat {
			continue
		}
		if kind != want {
			f.t.Fatalf("got %s frame, want %s", kindName(kind), kindName(want))
		}
		return kind, body
	}
}

// registerAddrs completes the address-exchange phase for every fake worker
// so the join-phase watchdog is satisfied before the test misbehaves.
func registerAddrs(t *testing.T, fws ...*fakeWorker) {
	t.Helper()
	for _, f := range fws {
		addrs := make([]string, f.w.Hi-f.w.Lo)
		for i := range addrs {
			addrs[i] = "stub"
		}
		f.send(fAddrSet, addrs)
	}
	for _, f := range fws {
		f.recv(fAddrTable)
	}
}

// waitOutcome asserts the attempt ends (no hung epoch) with a failure.
func waitOutcome(t *testing.T, outc <-chan attemptOutcome, wantSubstr string) attemptOutcome {
	t.Helper()
	select {
	case out := <-outc:
		if out.ok {
			t.Fatalf("attempt succeeded, want failure containing %q", wantSubstr)
		}
		if out.err == nil || !strings.Contains(out.err.Error(), wantSubstr) {
			t.Fatalf("attempt error = %v, want substring %q", out.err, wantSubstr)
		}
		return out
	case <-time.After(5 * time.Second):
		t.Fatal("attempt hung: no outcome within 5s")
		return attemptOutcome{}
	}
}

func TestCoordDuplicateBarrierEntryAborts(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// A duplicated barrier-entry frame (retransmission bug, confused worker)
	// is a protocol violation, not a hang.
	f0.send(fBarrier, int64(-1))
	f0.send(fBarrier, int64(-1))
	waitOutcome(t, outc, "entered a barrier round twice")
	f1.recv(fAbort)
}

func TestCoordLostBarrierFrameTimesOut(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// Worker 1's barrier entry is "lost": it never arrives. The round timer
	// must end the attempt; worker 0 must see the abort, not wait forever.
	f0.send(fBarrier, int64(0))
	waitOutcome(t, outc, "round timed out")
	f0.recv(fAbort)
	_ = f1
}

func TestCoordReorderedRoundsAbort(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// Reordered frames: worker 1 joins the open barrier round with a gather
	// entry. SPMD lockstep makes this impossible in a correct fleet, so the
	// coordinator treats it as protocol damage.
	f0.send(fBarrier, int64(2))
	f1.send(fGather, gatherMsg{Seq: 0, Vals: []int64{1, 1}})
	waitOutcome(t, outc, "round is open")
}

func TestCoordMismatchedBarrierTagsAbort(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// Divergent epoch tags on the same vote round: the fleet is no longer
	// in lockstep (e.g. a worker replayed a stale frame).
	f0.send(fBarrier, int64(3))
	f1.send(fBarrier, int64(4))
	waitOutcome(t, outc, "round is open")
}

func TestCoordOneWayPartitionDuringWave(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// One-way partition during detector quiescence: the wave starter's
	// frames reach the coordinator, the poll reaches worker 1, but worker
	// 1's reply path is dead (it stays silent). The wave round must time
	// out; quiescence must never be declared from a partial sample.
	f0.send(fWaveStart, am.WaveSample{Sent: 5, Recv: 5})
	f1.recv(fWavePoll)
	waitOutcome(t, outc, "round timed out")
	f0.recv(fAbort)
}

// TestCoordMalformedFramesAbort: an admitted worker's second hello and a
// clock ping whose body does not decode are protocol damage that aborts the
// attempt with ErrDecode. (A second hello used to reach admit, which wrote
// the welcome to a connection the event did not carry and panicked.)
func TestCoordMalformedFramesAbort(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind byte
		body any
		want string
	}{
		{"second hello", fHello, hello{Worker: 0}, "unexpected hello frame from worker 0"},
		{"bad clock ping", fClockPing, gatherMsg{Seq: 1}, "clock-ping body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, outc := testCoord(t, 2, 4)
			f0 := dialFake(t, c.addr(), 0)
			f1 := dialFake(t, c.addr(), 1)
			registerAddrs(t, f0, f1)
			f0.send(tc.kind, tc.body)
			if out := waitOutcome(t, outc, tc.want); !errors.Is(out.err, ErrDecode) {
				t.Fatalf("attempt error %v does not wrap ErrDecode", out.err)
			}
			f1.recv(fAbort)
		})
	}
}

func TestCoordCommitVoteAdvancesOnlyOnFullEntry(t *testing.T) {
	c, outc := testCoord(t, 2, 4)
	f0 := dialFake(t, c.addr(), 0)
	f1 := dialFake(t, c.addr(), 1)
	registerAddrs(t, f0, f1)

	// Epoch 0 commit vote completes: both slot files are (notionally) on
	// disk, so the release must carry the tag and the outcome must record
	// the commit even though the attempt later dies.
	f0.send(fBarrier, int64(0))
	f1.send(fBarrier, int64(0))
	if _, body := f0.recv(fBarrierRelease); mustTag(t, body) != 0 {
		t.Fatal("release tag != 0")
	}
	f1.recv(fBarrierRelease)

	// Next epoch's vote never completes (worker 1 dies mid-vote): the
	// commit must stay at epoch 0.
	f0.send(fBarrier, int64(1))
	f1.conn.Close()
	out := waitOutcome(t, outc, "connection lost")
	if out.committed != 0 {
		t.Fatalf("committed = %d after torn vote, want 0", out.committed)
	}
}

func mustTag(t *testing.T, body []byte) int64 {
	t.Helper()
	var tag int64
	if err := decodeBody(fBarrierRelease, body, &tag); err != nil {
		t.Fatal(err)
	}
	return tag
}
