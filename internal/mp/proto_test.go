package mp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"declpat/internal/am"
	"declpat/internal/frame"
)

func TestFrameRoundTrip(t *testing.T) {
	bodies := map[byte]any{
		fHello:      hello{Worker: 3},
		fBarrier:    int64(-1),
		fGather:     gatherMsg{Seq: 7, Vals: []int64{1, -2, 3}},
		fWaveStart:  am.WaveSample{Sent: 10, Recv: 9, Active: 1},
		fAbort:      abortMsg{Clean: true, Reason: "worker 1 departed cleanly"},
		fResult:     resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}},
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
		if gotKind != kind {
			t.Fatalf("%s round trip: got kind %s", kindName(kind), kindName(gotKind))
		}
		if body == nil {
			if len(gotBody) != 0 {
				t.Fatalf("%s: bodyless frame read back %q", kindName(kind), gotBody)
			}
			continue
		}
		got := reflect.New(reflect.TypeOf(body))
		if err := decodeBody(kind, gotBody, got.Interface()); err != nil || !reflect.DeepEqual(got.Elem().Interface(), body) {
			t.Fatalf("%s round trip: got %+v (%v), want %+v", kindName(kind), got.Elem(), err, body)
		}
	}
}

func TestFrameCorruptionIsDecodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fBarrier, int64(4)); err != nil {
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
	if err := writeFrame(&buf, fGather, gatherMsg{Seq: 1, Vals: []int64{9}}); err != nil {
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

// TestDecodersBoundCountsByBytes: a body cut off inside a long array is a
// decode error, reported before anything is sized by what the array would
// have held — a short addr-set or gather body must not reserve a gigabyte.
func TestDecodersBoundCountsByBytes(t *testing.T) {
	long := func(prefix string) []byte {
		return append([]byte(prefix), bytes.Repeat([]byte(`0,`), 1<<16)...)
	}
	for _, tc := range []struct {
		name string
		kind byte
		body []byte
		v    any
	}{
		{"string table", fAddrSet, bytes.Replace(long(`[`), []byte(`0`), []byte(`""`), -1), new([]string)},
		{"gather values", fGather, long(`{"Seq":1,"Vals":[`), new(gatherMsg)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decodeBody(tc.kind, tc.body, tc.v)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("got %v, want ErrDecode", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("decoder allocated %d bytes for an array it could not back", got)
			}
		})
	}
}

// TestHelloValidation: the control hello is frame.Hello("DPCP") plus the
// worker's JSON, checked by the shared frame.CheckHello. A foreign magic or
// another build's version — frame.Version 2, the layout before control bodies
// became JSON, included — is a decode error that names the hello.
func TestHelloValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fHello, hello{Worker: 2}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()[4+1 : buf.Len()-8]
	if want := append(frame.Hello(nil, protoMagic), `{"Worker":2}`...); !bytes.Equal(good, want) {
		t.Fatalf("hello body %q, want %q", good, want)
	}
	read := func(body []byte) (hello, error) {
		kind, rest, err := readFrame(bytes.NewReader(frame.Seal(append(frame.Begin(nil, fHello), body...))))
		var h hello
		if err == nil {
			err = decodeBody(kind, rest, &h)
		}
		return h, err
	}
	if h, err := read(good); err != nil || h.Worker != 2 {
		t.Fatalf("hello round trip: got %+v, %v", h, err)
	}
	version := func(v uint16) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(b[4:], v)
		return b
	}
	for _, tc := range []struct {
		name  string
		body  []byte
		hello bool // the shared check, not the worker field, refuses it
	}{
		{"next version", version(frame.Version + 1), true},
		{"version 2", binary.LittleEndian.AppendUint32(version(2)[:6], 2), true},
		{"wrong magic", append(frame.Hello(nil, "DPS1"), `{"Worker":2}`...), true},
		{"truncated hello", good[:3], true},
		{"truncated worker", good[:len(good)-1], false},
		{"trailing byte", append(append([]byte(nil), good...), ' '), false},
	} {
		_, err := read(tc.body)
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
		Job: json.RawMessage(`{"algo":"bfs"}`),
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, fWelcome, w); err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(&buf)
	var got welcome
	if err == nil {
		err = decodeBody(kind, body, &got)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
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
	// A source outside the graph would "complete" with every vertex
	// unreached (CC takes no source), a negative size panics
	// distgraph.NewBlockDist, a scale of 32 or more overflows the 32-bit
	// vertex ids, and a rate outside [0, 1] panics am.New.
	for _, c := range []struct {
		spec JobSpec
		ok   bool
	}{
		{JobSpec{Algo: "bfs", Scale: 6, Source: 63}, true},
		{JobSpec{Algo: "bfs", Scale: 6, Source: 64}, false},
		{JobSpec{Algo: "sssp", Scale: 6, Source: 1 << 31}, false},
		{JobSpec{Algo: "sssp", Source: 256}, false}, // default scale 8
		{JobSpec{Algo: "cc", Scale: 6, Source: 64}, true},
		{JobSpec{Algo: "bfs", Scale: 31, Source: 1<<32 + 1}, false}, // not truncated to 1
		{JobSpec{Algo: "bfs", Ranks: -1}, false},
		{JobSpec{Algo: "bfs", Threads: -1}, false},
		{JobSpec{Algo: "bfs", Scale: -1}, false},
		{JobSpec{Algo: "bfs", EdgeFactor: -1}, false},
		{JobSpec{Algo: "sssp", Delta: -1}, false},
		{JobSpec{Algo: "bfs", Scale: 31}, true},
		{JobSpec{Algo: "bfs", Scale: 32}, false},
		{JobSpec{Algo: "cc", Scale: 40}, false},
		{JobSpec{Algo: "bfs", Drop: 1}, true},
		{JobSpec{Algo: "bfs", Drop: -0.1}, false},
		{JobSpec{Algo: "bfs", Drop: 1.5}, false},
		{JobSpec{Algo: "bfs", Drop: math.NaN()}, false},
	} {
		if err := c.spec.Normalize(); (err == nil) != c.ok {
			t.Fatalf("%+v: Normalize error %v, want ok=%v", c.spec, err, c.ok)
		}
	}
	// Zero threads is am's "no handler threads", not a request for the
	// default.
	zero := JobSpec{Algo: "sssp", Threads: 0}
	if err := zero.Normalize(); err != nil || zero.Threads != 0 {
		t.Fatalf("Threads: 0 normalized to %d (err %v), want 0", zero.Threads, err)
	}
	if _, err := unmarshalJob([]byte("{not json")); !errors.Is(err, ErrDecode) {
		t.Fatalf("bad job JSON: got %v, want ErrDecode", err)
	}
}
