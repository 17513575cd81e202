package am

import (
	"sync/atomic"
	"testing"
)

// benchMsg mirrors the pattern engine's message shape: a handful of live
// word lanes and a mostly-zero Vals array. This is the payload the codec
// fast path was built for.
type benchMsg struct {
	Action int32
	Cond   int16
	Hop    int16
	Dest   uint32
	V      uint32
	U      uint32
	Vals   [12]int64
}

func benchBatch(n int) []benchMsg {
	batch := make([]benchMsg, n)
	for i := range batch {
		batch[i] = benchMsg{Action: 1, Dest: uint32(i * 7), V: uint32(i), U: uint32(i + 1)}
		batch[i].Vals[0] = int64(i) * 3
	}
	return batch
}

func benchCodec(b *testing.B) Codec[benchMsg] {
	fixed, err := FixedCodec[benchMsg]()
	if err != nil {
		b.Fatal(err)
	}
	return fixed
}

// BenchmarkCodecEncode measures encoding a coalesced 64-message batch into a
// reused buffer. wire_B reports the encoded size.
func BenchmarkCodecEncode(b *testing.B) {
	batch, c := benchBatch(64), benchCodec(b)
	b.Run("fixed", func(b *testing.B) {
		var buf []byte
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = c.Append(buf[:0], batch)
			if err != nil {
				b.Fatal(err)
			}
			n = len(buf)
		}
		b.ReportMetric(float64(n), "wire_B")
	})
}

// BenchmarkCodecDecode measures decoding into a reused destination slice —
// the receive-side pool pattern.
func BenchmarkCodecDecode(b *testing.B) {
	batch, c := benchBatch(64), benchCodec(b)
	b.Run("fixed", func(b *testing.B) {
		wire, err := c.Append(nil, batch)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]benchMsg, 0, len(batch))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := c.Decode(dst[:0], wire)
			if err != nil {
				b.Fatal(err)
			}
			dst = out[:0]
		}
	})
}

// BenchmarkCodecTransport prices one epoch (encode, checksum, decode, pooled
// buffers, reliable delivery) of a resident reliable universe, which ships
// every envelope that crosses a link through the fixed codec. The universe
// is built outside the timer and the allocation count, and b.N epochs run
// inside one Run, so an op is an epoch, not a universe's life.
// Nothing is lost in process, and the retransmit clock (one tick per poll
// here) is pushed out of reach, so no scheduling-dependent resend is priced.
func BenchmarkCodecTransport(b *testing.B) {
	const ranks, per = 2, 256
	b.Run("fixed", func(b *testing.B) {
		u := newUniverse(config{Ranks: ranks, ThreadsPerRank: 2, CoalesceSize: 32,
			FaultPlan: &FaultPlan{Seed: 1, retransmitBase: 1 << 20}})
		var sum atomic.Int64
		mt := Register(u, "bench", func(r *Rank, m benchMsg) { sum.Add(m.Vals[0]) })
		b.ReportAllocs()
		b.ResetTimer()
		if err := u.Run(func(r *Rank) {
			for i := 0; i < b.N; i++ {
				r.Epoch(func(ep *Epoch) {
					for j := 0; j < per; j++ {
						mt.SendTo(r, (r.ID()+1)%ranks, benchMsg{V: uint32(j), Vals: [12]int64{int64(j)}})
					}
				})
			}
		}); err != nil {
			b.Fatal(err)
		}
	})
}
