package mp

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"declpat/internal/am"
)

// bodyKinds maps every control-frame kind that carries a body to a sample of
// its body's type.
var bodyKinds = map[byte]any{
	fHello: hello{Worker: 3},
	fWelcome: welcome{RunID: 1, Workers: 2, Ranks: 4, Lo: 2, Hi: 4, RestartEpoch: 3, HaveCkpt: true,
		Log: [][]int64{{1, 2}, {3}}, CkptDir: "/tmp/ckpt", WorkerSeed: 9, KillEpoch: 2,
		KillMode: killBody, Job: json.RawMessage(`{"algo":"bfs"}`)},
	fAddrSet:        []string{"127.0.0.1:4000", "/tmp/rank-1.sock"},
	fAddrTable:      []string{"127.0.0.1:4000"},
	fBarrier:        int64(-1),
	fBarrierRelease: int64(4),
	fGather:         gatherMsg{Seq: 7, Vals: []int64{1, -2, 3}},
	fGatherRelease:  gatherMsg{Seq: 7, Vals: []int64{1, -2, 3, 4}},
	fWaveStart:      am.WaveSample{Sent: 10, Recv: 9, Active: 1},
	fWaveReply:      waveReply{OK: true, Sample: am.WaveSample{Sent: 1}},
	fWaveResult:     am.WaveSample{Sent: 1 << 40, Idle: 4, Total: 4},
	fFault:          am.RankFault{Kind: am.FaultTransport, Rank: 1, Epoch: 4, Detail: "link 0->1"},
	fAbort:          abortMsg{Clean: true, Reason: "worker 1 departed cleanly"},
	fClockPing:      clockMsg{T1: 100},
	fClockPong:      clockMsg{T1: 100, Remote: 250},
	fTrace:          traceMsg{Worker: 1, Lo: 2, Hi: 4, Offset: -5, ErrBound: 9, Final: true, Records: json.RawMessage(`[]`)},
	fResult:         resultMsg{Vec: 1, VertexLo: 64, Vals: []int64{5, 6}},
}

// elements counts the entries of every slice and map in v, byte strings
// excepted.
func elements(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n += elements(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += elements(v.Field(i))
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			break
		}
		n += v.Len()
		for i := 0; i < v.Len(); i++ {
			n += elements(v.Index(i))
		}
	case reflect.Map:
		n += v.Len()
	}
	return n
}

// FuzzBodyDecoders decodes arbitrary bytes as the body of every kind — what a
// CRC-valid frame from anything that can dial the control port may carry.
// decodeBody must never panic, must fail only with ErrDecode, must never
// return more elements than the body's bytes could encode (a JSON array of n
// entries is at least 2n bytes), and must accept exactly what writeFrame
// writes for the value it returns.
func FuzzBodyDecoders(f *testing.F) {
	for _, kind := range []byte{fHello, fWelcome, fAddrSet, fBarrier, fGather, fWaveStart, fWaveReply,
		fFault, fAbort, fClockPong, fTrace, fResult} {
		b, err := encodeBody(bodyKinds[kind])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"OK":2}`))                       // not a bool
	f.Add([]byte(`{"Sent":1,"Active":4294967296}`)) // out of int32 range
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for kind, sample := range bodyKinds {
			v := reflect.New(reflect.TypeOf(sample))
			if err := decodeBody(kind, b, v.Interface()); err != nil {
				if !errors.Is(err, ErrDecode) {
					t.Fatalf("%s: error %v does not wrap ErrDecode", kindName(kind), err)
				}
				continue
			}
			if n := elements(v); n > len(b)/2 {
				t.Fatalf("%s: %d elements decoded from %d bytes", kindName(kind), n, len(b))
			}
			if re, err := encodeBody(v.Elem().Interface()); err != nil || !bytes.Equal(re, b) {
				t.Fatalf("%s: accepted %q, which re-encodes as %q (%v)", kindName(kind), b, re, err)
			}
		}
	})
}

// encodeBody is the body writeFrame writes for v.
func encodeBody(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, fWelcome, v); err != nil {
		return nil, err
	}
	return buf.Bytes()[4+1 : buf.Len()-8], nil
}
