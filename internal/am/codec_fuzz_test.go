package am

import (
	"math"
	"testing"
)

// FuzzFixedCodecDecode throws arbitrary bytes at the fixed codec's decoder.
// The invariant under attack: Decode either returns an error or a batch that
// re-encodes and re-decodes to the same values — never a panic, never an
// out-of-bounds read, never a fabricated value that doesn't survive a round
// trip. (Byte-level canonicality is NOT asserted: binary.Uvarint accepts
// non-minimal varints, so distinct byte strings can decode to equal values.)
func FuzzFixedCodecDecode(f *testing.F) {
	c, err := FixedCodec[codecPayload]()
	if err != nil {
		f.Fatal(err)
	}
	valid, _ := c.Append(nil, samplePayloads())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0x00})
	f.Add([]byte{0x02, 0x01})
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xff))
	f.Fuzz(func(t *testing.T, b []byte) {
		batch, err := c.Decode(nil, b)
		if err != nil {
			return
		}
		b2, err := c.Append(nil, batch)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		batch2, err := c.Decode(nil, b2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(batch) != len(batch2) {
			t.Fatalf("round trip changed count: %d vs %d", len(batch), len(batch2))
		}
		for i := range batch {
			if !payloadBitsEqual(batch[i], batch2[i]) {
				t.Fatalf("round trip diverged at message %d:\n first %+v\nsecond %+v",
					i, batch[i], batch2[i])
			}
		}
	})
}

// payloadBitsEqual compares two payloads with float lanes compared by bit
// pattern (NaN-safe; == and reflect.DeepEqual treat NaN as unequal to
// itself).
func payloadBitsEqual(a, b codecPayload) bool {
	af32, bf32 := math.Float32bits(a.F32), math.Float32bits(b.F32)
	af64, bf64 := math.Float64bits(a.F64), math.Float64bits(b.F64)
	a.F32, b.F32, a.F64, b.F64 = 0, 0, 0, 0
	return a == b && af32 == bf32 && af64 == bf64
}

// FuzzFixedCodecRoundTrip drives the encoder with fuzz-chosen field values
// (including a dirty recycled destination) and asserts exact value recovery.
func FuzzFixedCodecRoundTrip(f *testing.F) {
	c, err := FixedCodec[codecPayload]()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint64(0), int64(0), false, 0.0, uint8(1))
	f.Add(uint8(255), uint64(math.MaxUint64), int64(math.MinInt64), true, math.Inf(-1), uint8(64))
	f.Add(uint8(7), uint64(1)<<33, int64(-1), true, math.Pi, uint8(3))
	f.Fuzz(func(t *testing.T, u8 uint8, u64 uint64, i64 int64, b bool, fl float64, n uint8) {
		count := int(n%65) + 1
		batch := make([]codecPayload, count)
		for i := range batch {
			m := &batch[i]
			m.U8 = u8 + uint8(i)
			m.U32 = uint32(u64 >> 16)
			m.U64 = u64 ^ uint64(i)
			m.I16 = int16(i64)
			m.I64 = i64 - int64(i)
			m.B = b != (i%2 == 0)
			m.F32 = float32(fl)
			m.F64 = fl * float64(i)
			m.Arr = [3]int64{i64, -i64, int64(i)}
			m.Nest.V = uint32(u64)
			m.Nest.W = int8(i64 >> 8)
		}
		enc, err := c.Append(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		dirty := make([]codecPayload, 4)
		for i := range dirty {
			dirty[i] = codecPayload{U64: ^uint64(0), B: true}
		}
		got, err := c.Decode(dirty[:0], enc)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		// NaN != NaN breaks DeepEqual; compare through bit patterns.
		for i := range batch {
			w, g := batch[i], got[i]
			wf32, gf32 := math.Float32bits(w.F32), math.Float32bits(g.F32)
			wf64, gf64 := math.Float64bits(w.F64), math.Float64bits(g.F64)
			w.F32, g.F32, w.F64, g.F64 = 0, 0, 0, 0
			if w != g || wf32 != gf32 || wf64 != gf64 {
				t.Fatalf("message %d mismatch:\n got %+v (f32=%x f64=%x)\nwant %+v (f32=%x f64=%x)",
					i, g, gf32, gf64, w, wf32, wf64)
			}
		}
	})
}
