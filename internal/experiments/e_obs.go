package experiments

import (
	"sync"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
	"declpat/internal/obs"
)

// E17Observability quantifies what the observability substrate costs.
//
// E17a runs the fixed-point SSSP with the per-rank sharded counters alone
// and then with each optional layer on top (timing histograms, span
// tracing): they buy their data with bounded overhead. (The single-shard
// legacy layout this once compared against is recorded in EXPERIMENTS.md;
// E17b still measures what sharding removes.) Repetitions are interleaved
// across configurations so slow machine drift cannot bias one row against
// another.
//
// E17b isolates the counter hot path from the workload: goroutines doing
// nothing but Inc on a shared counter, single-shard vs one shard per
// goroutine. This is the contention the substrate removes from every SendTo
// (visible only with real hardware parallelism; on one core the layouts tie).
func E17Observability(sc Scale) []*harness.Table {
	n, edges := workload(sc)
	t := harness.NewTable("E17a: observability overhead (fixed-point SSSP, 4 ranks x 2 threads)",
		"config", "messages", "min-time", "median", "vs-sharded")
	configs := []struct {
		name string
		opts []am.Option
	}{
		{"sharded counters", []am.Option{am.WithThreads(2)}},
		{"+ timing histograms", []am.Option{am.WithThreads(2), am.WithTiming()}},
		{"+ span tracing", []am.Option{am.WithThreads(2), am.WithTiming(), am.WithTraceCapacity(1 << 20)}},
	}
	const reps = 5
	us := make([]*am.Universe, len(configs))
	times := make([][]time.Duration, len(configs))
	iter := func(i int) time.Duration {
		return harness.Time(func() {
			e := newEnv(am.New(4, configs[i].opts...), n, edges, defaultGOpts(), PaperPlan())
			s := algorithms.NewSSSP(e.eng)
			e.u.Run(func(r *am.Rank) { s.Run(r, 0) })
			us[i] = e.u
		})
	}
	for i := range configs {
		iter(i) // warmup: heap growth and cold code paths outside the measurement
	}
	for rep := 0; rep < reps; rep++ {
		for i := range configs {
			times[i] = append(times[i], iter(i))
		}
	}
	var base float64
	for i, c := range configs {
		ds := times[i]
		for a := 1; a < len(ds); a++ {
			for b := a; b > 0 && ds[b] < ds[b-1]; b-- {
				ds[b], ds[b-1] = ds[b-1], ds[b]
			}
		}
		min, med := ds[0], ds[len(ds)/2]
		if base == 0 {
			base = float64(min)
		}
		t.Add(row([]any{c.name}, statCells(us[i], "messages"),
			min, med, harness.Ratio(float64(min), base))...)
	}

	const workers, perWorker = 8, 1 << 20
	hot := harness.NewTable("E17b: counter hot path ("+itoa(workers)+" goroutines x "+itoa(perWorker)+" Inc)",
		"layout", "min-time", "ns/op")
	for _, shards := range []int{1, workers} {
		c := obs.NewCounters(shards, "x")
		min, _ := harness.MinMed(3, func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(sh obs.Shard) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						sh.Inc(0)
					}
				}(c.Shard(w % shards))
			}
			wg.Wait()
		})
		name := "single shard (legacy)"
		if shards > 1 {
			name = "per-goroutine shards"
		}
		hot.Add(name, min, float64(min)/float64(workers*perWorker)/float64(time.Nanosecond))
	}
	return []*harness.Table{t, hot}
}
