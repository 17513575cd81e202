// Benchmarks of the root package. The quantities the paper implies are
// regenerated as tables by cmd/experiments and, end to end, by the bench
// module's ledger; two benchmarks stay here:
//
//   - BenchmarkE17Observability, which CI's codec-bench job runs and
//     BENCH_codec.json records;
//   - BenchmarkHostParallelism, the host check every ranks × threads timing
//     is read against.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem .
package declpat_test

import (
	"sync"
	"testing"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/experiments"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

const (
	benchScale      = 11 // 2^11 = 2048 vertices
	benchEdgeFactor = 8
	benchSeed       = 42
)

// runFixedPointSSSP rebuilds the universe, am.New(4, opts...), graph and
// binding per iteration (universes are single-Run) with the timer paused,
// so ns/op is the fixed-point SSSP solve alone under experiments.PaperPlan,
// and reports message metrics from the final iteration.
func runFixedPointSSSP(b *testing.B, opts []am.Option) {
	n, edges := gen.RMAT(benchScale, benchEdgeFactor, gen.Weights{Min: 1, Max: 100}, benchSeed)
	b.ResetTimer()
	var u *am.Universe
	var s *algorithms.SSSP
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u = am.New(4, opts...)
		d := distgraph.NewBlockDist(n, u.Ranks())
		g := distgraph.Build(d, edges, distgraph.Options{})
		s = algorithms.NewSSSP(pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), experiments.PaperPlan()))
		s.UseFixedPoint()
		b.StartTimer()
		u.Run(func(r *am.Rank) { s.Run(r, 0) })
	}
	b.StopTimer()
	b.ReportMetric(float64(u.Stats.MsgsSent()), "msgs/op")
	b.ReportMetric(float64(u.Stats.Envelopes()), "envelopes/op")
	b.ReportMetric(float64(s.Relax.Stats.ModsChanged.Load()), "relax-ok/op")
}

// BenchmarkE17Observability measures the observability substrate on the
// fixed-point SSSP: the per-rank sharded counters alone, then the optional
// timing histograms and span tracing on top.
func BenchmarkE17Observability(b *testing.B) {
	for _, v := range []struct {
		name string
		opts []am.Option
	}{
		{"sharded", []am.Option{am.WithThreads(2)}},
		{"timing", []am.Option{am.WithThreads(2), am.WithTiming()}},
		{"tracing", []am.Option{am.WithThreads(2), am.WithTiming(), am.WithTraceCapacity(1 << 20)}},
	} {
		b.Run(v.name, func(b *testing.B) { runFixedPointSSSP(b, v.opts) })
	}
}

// BenchmarkHostParallelism measures the parallel throughput the host gives:
// the same work on private data run by one goroutine, then by two at once.
// pair/solo near 1 means two free cores; near 2 means the pair shares one
// core's worth, and a rank thread that spins slows the one with work. Read
// every "ranks × threads" number (E7, the bench ledger) against it.
func BenchmarkHostParallelism(b *testing.B) {
	work := func(buf []uint64) {
		x := uint64(88172645463325252)
		for round := 0; round < 64; round++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] += x
			}
		}
	}
	bufs := [2][]uint64{make([]uint64, 1<<16), make([]uint64, 1<<16)}
	var solo, pair time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		work(bufs[0])
		solo += time.Since(start)
		start = time.Now()
		var wg sync.WaitGroup
		for _, buf := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(buf)
			}()
		}
		wg.Wait()
		pair += time.Since(start)
	}
	b.ReportMetric(float64(pair)/float64(solo), "pair/solo")
	b.ReportMetric(float64(solo)/float64(b.N)/1e6, "solo-ms/op")
}
