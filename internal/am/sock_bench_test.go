package am

import (
	"sync/atomic"
	"testing"
)

// BenchmarkTransport runs the same wire-encoded epoch workload over each
// transport backend: the in-process channel transport as the floor, then
// Unix-domain sockets and TCP loopback, where every envelope is framed,
// CRC-sealed, written to a real socket, read back, verified, and decoded.
// wire_B reports the total frame bytes a run put on the wire.
func BenchmarkTransport(b *testing.B) {
	const ranks, per = 2, 256
	run := func(b *testing.B, mkTransport func() Transport) {
		b.ReportAllocs()
		var wireBytes int64
		for i := 0; i < b.N; i++ {
			cfg := config{Ranks: ranks, ThreadsPerRank: 2, CoalesceSize: 32}
			if mkTransport != nil {
				cfg.Transport = mkTransport()
			} else {
				// The channel floor is reliable, so it encodes as a socket
				// does and the comparison isolates the socket hop. Its
				// retransmit clock ticks per poll, and a retransmit encodes the
				// batch again: a timeout no ack misses keeps wire_B the codec's.
				cfg.FaultPlan = &FaultPlan{Seed: 1, retransmitBase: 1 << 20}
			}
			u := newUniverse(cfg)
			var sum atomic.Int64
			mt := Register(u, "bench", func(r *Rank, m benchMsg) { sum.Add(m.Vals[0]) })
			if err := u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					for j := 0; j < per; j++ {
						mt.SendTo(r, (r.ID()+1)%ranks, benchMsg{V: uint32(j), Vals: [12]int64{int64(j)}})
					}
				})
			}); err != nil {
				b.Fatal(err)
			}
			wireBytes = u.Stats.Snapshot().WireBytes
		}
		b.ReportMetric(float64(wireBytes), "wire_B")
	}
	b.Run("chan", func(b *testing.B) { run(b, nil) })
	b.Run("unix", func(b *testing.B) {
		requireLoopbackB(b)
		run(b, func() Transport { return SockTransport(SockOptions{Network: "unix"}) })
	})
	b.Run("tcp", func(b *testing.B) {
		requireLoopbackB(b)
		run(b, func() Transport { return SockTransport(SockOptions{Network: "tcp"}) })
	})
}

// requireLoopbackB is requireLoopback for benchmarks.
func requireLoopbackB(b *testing.B) {
	b.Helper()
	ln, err := netListenLoopback()
	if err != nil {
		b.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
}
