package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"declpat/internal/am"
	"declpat/internal/ckpt"
	"declpat/internal/frame"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := map[byte][]byte{
		fHello:      hello{Worker: 3}.encode(),
		fBarrier:    encodeTag(-1),
		fGather:     gatherMsg{Seq: 7, Vals: []int64{1, -2, 3}}.encode(),
		fWaveStart:  encodeWave(am.WaveSample{Sent: 10, Recv: 9, Active: 1}),
		fAbort:      abortMsg{Clean: true, Reason: "worker 1 departed cleanly"}.encode(),
		fResult:     resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}}.encode(),
		fResultDone: nil,
	}
	var buf bytes.Buffer
	for kind, body := range bodies {
		buf.Reset()
		if err := writeFrame(&buf, kind, body); err != nil {
			t.Fatalf("write %s: %v", kindName(kind), err)
		}
		gotKind, gotBody, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", kindName(kind), err)
		}
		if gotKind != kind || !bytes.Equal(gotBody, body) {
			t.Fatalf("%s round trip: got kind %s body %v, want body %v", kindName(kind), kindName(gotKind), gotBody, body)
		}
	}
}

func TestFrameCorruptionIsDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fBarrier, encodeTag(4)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-3] ^= 0x40 // damage the CRC seal
	_, _, err := readFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrDecode) {
		t.Fatalf("corrupted frame: got %v, want ErrDecode", err)
	}
}

func TestFrameTruncationIsPeerClosed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fGather, gatherMsg{Seq: 1, Vals: []int64{9}}.encode()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	_, _, err := readFrame(bytes.NewReader(raw[:len(raw)-4]))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("truncated frame: got %v, want ErrPeerClosed", err)
	}
	_, _, err = readFrame(bytes.NewReader(nil))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("empty stream: got %v, want ErrPeerClosed", err)
	}
}

// TestDecodersBoundCountsByBytes: a body whose count field promises more
// entries than its bytes can hold is a decode error, reported before
// anything is sized by the count — a four-byte addr-set body must not
// reserve a gigabyte.
func TestDecodersBoundCountsByBytes(t *testing.T) {
	count := func(n uint32) []byte {
		var e ckpt.Enc
		e.U32(n)
		return e.B
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"string table", func() error { _, err := decodeStrings(count(1 << 22)); return err }},
		{"gather values", func() error { _, err := decodeGather(append(make([]byte, 8), count(1<<22)...)); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("got %v, want ErrDecode", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("decoder allocated %d bytes for a count it could not back", got)
			}
		})
	}
}

// TestHelloValidation: the control hello is frame.Hello("DPCP") plus the
// worker index, checked by the shared frame.CheckHello. A foreign magic or
// another build's version is a decode error that names the hello.
func TestHelloValidation(t *testing.T) {
	h := hello{Worker: 2}
	good := h.encode()
	got, err := decodeHello(good)
	if err != nil || got != h {
		t.Fatalf("hello round trip: got %+v, %v", got, err)
	}
	if !bytes.Equal(good, binary.LittleEndian.AppendUint32(frame.Hello(nil, protoMagic), 2)) {
		t.Fatalf("hello body %x is not frame.Hello(DPCP) + u32 worker", good)
	}
	otherVersion := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(otherVersion[4:], frame.Version+1)
	for _, tc := range []struct {
		name  string
		body  []byte
		hello bool // the shared check, not the worker field, refuses it
	}{
		{"wrong version", otherVersion, true},
		{"wrong magic", binary.LittleEndian.AppendUint32(frame.Hello(nil, "DPS1"), 2), true},
		{"truncated hello", good[:3], true},
		{"truncated worker", good[:len(good)-1], false},
		{"trailing byte", append(append([]byte(nil), good...), 0), false},
	} {
		_, err := decodeHello(tc.body)
		if !errors.Is(err, ErrDecode) || errors.Is(err, frame.ErrHello) != tc.hello {
			t.Errorf("%s: got %v, want ErrDecode (frame.ErrHello %v)", tc.name, err, tc.hello)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := welcome{
		RunID: 0xdeadbeef, Workers: 4, Ranks: 8, Lo: 2, Hi: 4,
		RestartEpoch: 3, HaveCkpt: true,
		Log:        [][]int64{{1, 2}, {3}},
		CkptDir:    "/tmp/ckpt",
		WorkerSeed: 99, KillEpoch: 2, KillMode: killBody,
		JobJSON: []byte(`{"algo":"bfs"}`),
	}
	got, err := decodeWelcome(w.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != w.RunID || got.Lo != w.Lo || got.Hi != w.Hi ||
		got.RestartEpoch != w.RestartEpoch || !got.HaveCkpt ||
		len(got.Log) != 2 || got.Log[0][1] != 2 ||
		got.CkptDir != w.CkptDir || got.WorkerSeed != w.WorkerSeed ||
		got.KillEpoch != 2 || got.KillMode != killBody ||
		string(got.JobJSON) != string(w.JobJSON) {
		t.Fatalf("welcome round trip: got %+v, want %+v", got, w)
	}
}

func TestRankRange(t *testing.T) {
	// 10 ranks over 4 workers: contiguous, covering, ascending.
	prev := 0
	total := 0
	for w := 0; w < 4; w++ {
		lo, hi := rankRange(10, 4, w)
		if lo != prev {
			t.Fatalf("worker %d: lo=%d, want %d", w, lo, prev)
		}
		if hi <= lo {
			t.Fatalf("worker %d: empty range [%d,%d)", w, lo, hi)
		}
		prev = hi
		total += hi - lo
	}
	if total != 10 {
		t.Fatalf("ranges cover %d ranks, want 10", total)
	}
}

func TestJobSpecValidation(t *testing.T) {
	j := JobSpec{Algo: "bfs"}
	if err := j.Normalize(); err != nil {
		t.Fatal(err)
	}
	if j.Ranks == 0 || j.Scale == 0 || j.Network != "tcp" {
		t.Fatalf("defaults not applied: %+v", j)
	}
	bad := JobSpec{Algo: "pagerank"}
	if err := bad.Normalize(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	badNet := JobSpec{Algo: "bfs", Network: "sctp"}
	if err := badNet.Normalize(); err == nil {
		t.Fatal("unknown network accepted")
	}
	if _, err := unmarshalJob([]byte("{not json")); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad job JSON: got %v, want ErrDecode", err)
	}
}
