package mp

import (
	"bytes"
	"errors"
	"testing"

	"declpat/internal/am"
)

// FuzzBodyDecoders runs every control-frame body decoder over arbitrary
// bytes — what a CRC-valid frame from anything that can dial the control
// port may carry. A decoder must never panic, must fail only with
// ErrDecode, must never return more elements than the body's bytes could
// encode, and (where the encoding is canonical) must accept exactly what
// its encoder produces.
func FuzzBodyDecoders(f *testing.F) {
	f.Add(hello{Worker: 3}.encode())
	f.Add(welcome{RunID: 1, Workers: 2, Ranks: 4, Lo: 2, Hi: 4, RestartEpoch: 3, HaveCkpt: true,
		Log: [][]int64{{1, 2}, {3}}, CkptDir: "/tmp/ckpt", WorkerSeed: 9, KillEpoch: 2,
		KillMode: killBody, JobJSON: []byte(`{"algo":"bfs"}`)}.encode())
	f.Add(encodeStrings([]string{"127.0.0.1:4000", "/tmp/rank-1.sock"}))
	f.Add(encodeTag(-1))
	f.Add(gatherMsg{Seq: 7, Vals: []int64{1, -2, 3}}.encode())
	f.Add(encodeWave(am.WaveSample{Sent: 10, Recv: 9, Active: 1}))
	f.Add(waveReply{OK: true, Sample: am.WaveSample{Sent: 1}}.encode())
	f.Add(encodeFault(am.RankFault{Kind: am.FaultTransport, Rank: 1, Epoch: 4, Detail: "link 0->1"}))
	f.Add(abortMsg{Clean: true, Reason: "worker 1 departed cleanly"}.encode())
	f.Add(clockMsg{T1: 100, Remote: 250}.encode())
	f.Add(traceMsg{Worker: 1, Lo: 2, Hi: 4, Offset: -5, ErrBound: 9, Final: true, Records: []byte("[]")}.encode())
	f.Add(resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}}.encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // a count with nothing behind it
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		check := func(name string, err error, elems int, reenc []byte) {
			if err != nil {
				if !errors.Is(err, ErrDecode) {
					t.Fatalf("%s: error %v does not wrap ErrDecode", name, err)
				}
				return
			}
			if elems > len(b)/4 {
				t.Fatalf("%s: %d elements decoded from %d bytes", name, elems, len(b))
			}
			if reenc != nil && !bytes.Equal(reenc, b) {
				t.Fatalf("%s: accepted %x, which re-encodes as %x", name, b, reenc)
			}
		}
		h, err := decodeHello(b)
		check("hello", err, 0, h.encode())
		w, err := decodeWelcome(b)
		check("welcome", err, len(w.Log), nil)
		ss, err := decodeStrings(b)
		check("strings", err, len(ss), encodeStrings(ss))
		tag, err := decodeTag(b)
		check("tag", err, 0, encodeTag(tag))
		g, err := decodeGather(b)
		check("gather", err, len(g.Vals), g.encode())
		// Wave samples carry int32 fields as i64 on the wire: not canonical.
		_, err = decodeWave(b)
		check("wave", err, 0, nil)
		_, err = decodeWaveReply(b)
		check("wave reply", err, 0, nil)
		_, err = decodeFault(b)
		check("fault", err, 0, nil)
		_, err = decodeAbort(b)
		check("abort", err, 0, nil)
		c, err := decodeClock(b)
		check("clock", err, 0, c.encode())
		_, err = decodeTrace(b)
		check("trace", err, 0, nil)
		r, err := decodeResult(b)
		check("result", err, len(r.Vals), r.encode())
	})
}
