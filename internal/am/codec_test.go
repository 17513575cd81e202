package am

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

// codecPayload exercises every lane kind: unsigned and signed integers of
// several widths, bools, floats, nested structs, and arrays.
type codecPayload struct {
	U8   uint8
	U32  uint32
	U64  uint64
	I16  int16
	I64  int64
	B    bool
	F32  float32
	F64  float64
	Arr  [3]int64
	Nest struct {
		V uint32
		W int8
	}
}

func samplePayloads() []codecPayload {
	var p1, p2, p3 codecPayload
	p1 = codecPayload{U8: 255, U32: 1 << 30, U64: math.MaxUint64, I16: -32768,
		I64: math.MinInt64, B: true, F32: -1.5, F64: math.Pi, Arr: [3]int64{-1, 0, 7}}
	p1.Nest.V = 42
	p1.Nest.W = -8
	// p2 is all-zero: the cheapest wire case (bitmap only).
	p3 = codecPayload{U32: 1, I64: 1, F64: 1.0}
	return []codecPayload{p1, p2, p3}
}

func TestFixedCodecRoundTrip(t *testing.T) {
	c, err := FixedCodec[codecPayload]()
	if err != nil {
		t.Fatal(err)
	}
	batch := samplePayloads()
	b, err := c.Append(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, batch)
	}
	// Round trip into a dirty recycled destination must be identical too.
	dirty := make([]codecPayload, 8)
	for i := range dirty {
		dirty[i] = codecPayload{U64: 999, I64: -999, B: true}
	}
	got2, err := c.Decode(dirty[:0], b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, batch) {
		t.Fatalf("dirty-destination round trip mismatch: %+v", got2)
	}
}

func TestFixedCodecEmptyBatch(t *testing.T) {
	c, _ := FixedCodec[uint64]()
	b, err := c.Append(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(nil, b)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, err %v", got, err)
	}
}

func TestFixedCodecRejectsReferenceTypes(t *testing.T) {
	if _, err := FixedCodec[string](); err == nil {
		t.Error("string accepted")
	}
	if _, err := FixedCodec[struct{ P *int }](); err == nil {
		t.Error("pointer field accepted")
	}
	if _, err := FixedCodec[struct{ S []byte }](); err == nil {
		t.Error("slice field accepted")
	}
	if _, err := FixedCodec[struct{ M map[int]int }](); err == nil {
		t.Error("map field accepted")
	}
	if _, err := FixedCodec[struct{ C complex128 }](); err == nil {
		t.Error("complex field accepted")
	}
	if !HasFixedLayout[codecPayload]() {
		t.Error("fixed-layout struct rejected")
	}
}

// TestFixedCodecMalformedInputs feeds the decoder the classic attacker/
// corruption shapes; every one must come back as an error, never a panic.
func TestFixedCodecMalformedInputs(t *testing.T) {
	c, _ := FixedCodec[codecPayload]()
	valid, _ := c.Append(nil, samplePayloads())
	cases := map[string][]byte{
		"empty":           {},
		"truncated count": {0x80},
		"absurd count":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"count past end":  {0x10},
		"truncated tail":  valid[:len(valid)-1],
		"trailing bytes":  append(append([]byte{}, valid...), 0x00),
	}
	// A word that overflows its lane: one message, bitmap selecting U8
	// (lane 0), carrying a 2-byte varint value 300 > MaxUint8.
	cu8, _ := FixedCodec[struct{ V uint8 }]()
	cases["lane overflow"] = []byte{0x01, 0x01, 0xac, 0x02}
	for name, b := range cases {
		dec := c
		if name == "lane overflow" {
			if _, err := cu8.Decode(nil, b); err == nil {
				t.Errorf("%s: decode accepted malformed input", name)
			}
			continue
		}
		if _, err := dec.Decode(nil, b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// flakyCodec wraps the fixed codec but fails its first `failures` decodes,
// simulating a decode error on bytes that passed the checksum (e.g. a codec
// bug or a hash collision on corrupted bytes).
type flakyCodec struct {
	Codec[uint64]
	remaining atomic.Int64
}

func (f *flakyCodec) Name() string { return "flaky" }

func (f *flakyCodec) Decode(dst []uint64, b []byte) ([]uint64, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, errFlaky
	}
	return f.Codec.Decode(dst, b)
}

var errFlaky = fmtError("flaky codec: injected decode failure")

type fmtError string

func (e fmtError) Error() string { return string(e) }

// TestDecodeErrorRoutesThroughRetransmit proves the bugfix: a decode error
// in reliable mode must not crash the rank — the envelope is discarded
// unacknowledged, the retransmit path re-sends it, and the epoch completes
// with every message handled exactly once.
func TestDecodeErrorRoutesThroughRetransmit(t *testing.T) {
	inner, err := FixedCodec[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	fc := &flakyCodec{Codec: inner}
	fc.remaining.Store(3)
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		FaultPlan: &FaultPlan{Seed: 9}})
	var sum atomic.Int64
	mt := Register(u, "flaky", func(r *Rank, m uint64) { sum.Add(int64(m)) }).WithCodec(fc)
	const per = 40
	if err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 1; i <= per; i++ {
				mt.SendTo(r, 1-r.ID(), uint64(i))
			}
		})
	}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	want := int64(2 * per * (per + 1) / 2)
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d (messages lost or duplicated)", sum.Load(), want)
	}
	if got := u.Stats.DecodeErrors(); got != 3 {
		t.Fatalf("DecodeErrors = %d, want 3", got)
	}
	if u.Stats.Retransmits() == 0 {
		t.Fatal("decode errors recovered without retransmits?")
	}
}

// TestWireTransportMatchesInMemory ships the same workload through the fixed
// codec under faults and by reference on the trusted transport and checks
// the handler-observed results agree.
func TestWireTransportMatchesInMemory(t *testing.T) {
	type msg struct {
		V uint32
		D int64
	}
	run := func(plan *FaultPlan, check func(*MsgType[msg])) int64 {
		u := newUniverse(config{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 8, FaultPlan: plan})
		var sum atomic.Int64
		mt := Register(u, "m", func(r *Rank, m msg) { sum.Add(int64(m.V)*31 + m.D) })
		check(mt)
		if err := u.Run(func(r *Rank) {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 64; i++ {
					mt.SendTo(r, (r.ID()+1+i)%3, msg{V: uint32(i), D: int64(-i)})
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
		return sum.Load()
	}
	fixed := run(&FaultPlan{Seed: 5, Drop: 0.1, Dup: 0.1, Delay: 0.1, Corrupt: 0.1}, func(mt *MsgType[msg]) {
		if mt.CodecName() != "fixed" {
			t.Fatal("expected fixed codec")
		}
	})
	if mem := run(nil, func(*MsgType[msg]) {}); fixed != mem {
		t.Fatalf("fixed=%d in-memory=%d", fixed, mem)
	}
}

// TestFixedCodecSmallerThanStructs pins the size win that motivates the
// codec: a coalesced batch of zero-heavy word structs must encode in a small
// fraction of the structs' in-memory bytes.
func TestFixedCodecSmallerThanStructs(t *testing.T) {
	type pat struct {
		Action int32
		Dest   uint32
		V      uint32
		Vals   [12]int64
	}
	batch := make([]pat, 64)
	for i := range batch {
		batch[i] = pat{Action: 1, Dest: uint32(i), V: uint32(i * 3)}
		batch[i].Vals[0] = int64(i)
	}
	fc, err := FixedCodec[pat]()
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := fc.Append(nil, batch)
	raw := len(batch) * int(unsafe.Sizeof(pat{}))
	if len(fb)*8 > raw {
		t.Fatalf("fixed %d B > 1/8 of the structs' %d B for a zero-heavy batch", len(fb), raw)
	}
	t.Logf("fixed=%d B, structs=%d B (%.1fx)", len(fb), raw, float64(raw)/float64(len(fb)))
}
