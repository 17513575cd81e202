// Benchmarks regenerating every experiment of EXPERIMENTS.md (E1–E11, one
// bench per table/figure anchor) plus micro-benchmarks of the substrate.
// Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches report the same quantities as cmd/experiments as
// per-op metrics (messages, envelopes, relaxations, ...), so the shape
// comparisons of the paper can be read off `-bench` output directly. Like the
// experiments they mirror they run experiments.PaperPlan (Direct off, every
// hop a message), except E7 and E9, which time the engine as shipped.
package declpat_test

import (
	"sync"
	"testing"
	"time"

	"declpat"
	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/experiments"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/strategy"
)

const (
	benchScale      = 11 // 2^11 = 2048 vertices
	benchEdgeFactor = 8
	benchSeed       = 42
)

func benchGraph(b *testing.B) (int, []distgraph.Edge) {
	b.Helper()
	n, edges := gen.RMAT(benchScale, benchEdgeFactor, gen.Weights{Min: 1, Max: 100}, benchSeed)
	return n, edges
}

type ssspBench struct {
	u   *am.Universe
	s   *algorithms.SSSP
	eng *pattern.Engine
}

func newSSSPBench(u *am.Universe, n int, edges []distgraph.Edge, popts pattern.PlanOptions,
	mk func(u *am.Universe, s *algorithms.SSSP)) *ssspBench {
	d := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(d, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), popts)
	s := algorithms.NewSSSP(eng)
	mk(u, s)
	return &ssspBench{u: u, s: s, eng: eng}
}

// runSSSPBench rebuilds the universe, am.New(ranks, opts...), graph and
// binding per iteration (universes are single-Run) with the timer paused,
// so ns/op is the solve alone, and reports message metrics from the final
// iteration.
func runSSSPBench(b *testing.B, ranks int, opts []am.Option, popts pattern.PlanOptions,
	mk func(u *am.Universe, s *algorithms.SSSP)) {
	n, edges := benchGraph(b)
	b.ResetTimer()
	var last *ssspBench
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sb := newSSSPBench(am.New(ranks, opts...), n, edges, popts, mk)
		b.StartTimer()
		sb.u.Run(func(r *am.Rank) { sb.s.Run(r, 0) })
		last = sb
	}
	b.StopTimer()
	b.ReportMetric(float64(last.u.Stats.MsgsSent()), "msgs/op")
	b.ReportMetric(float64(last.u.Stats.Envelopes()), "envelopes/op")
	b.ReportMetric(float64(last.s.Relax.Stats.ModsChanged.Load()), "relax-ok/op")
}

// BenchmarkE1SSSPStrategies — Fig. 1: fixed-point vs Δ-stepping work
// profiles.
func BenchmarkE1SSSPStrategies(b *testing.B) {
	opts := []am.Option{am.WithThreads(2)}
	b.Run("fixed-point", func(b *testing.B) {
		runSSSPBench(b, 4, opts, experiments.PaperPlan(),
			func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
	})
	for _, delta := range []int64{8, 64, 512} {
		b.Run("delta-"+itoa(int(delta)), func(b *testing.B) {
			runSSSPBench(b, 4, opts, experiments.PaperPlan(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseDelta(u, delta) })
		})
	}
	b.Run("delta-dist-64x2", func(b *testing.B) {
		runSSSPBench(b, 4, opts, experiments.PaperPlan(),
			func(u *am.Universe, s *algorithms.SSSP) { s.UseDeltaDistributed(u, 64, 2) })
	})
}

// BenchmarkE2MergeOptimization — Fig. 6/§IV-A: merged vs unmerged
// evaluation, static plan difference measured at runtime on plain SSSP.
func BenchmarkE2MergeOptimization(b *testing.B) {
	for _, merged := range []bool{true, false} {
		name := "merged"
		if !merged {
			name = "unmerged"
		}
		b.Run(name, func(b *testing.B) {
			runSSSPBench(b, 4, []am.Option{am.WithThreads(2)},
				pattern.PlanOptions{Merge: merged, Fold: true},
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkE3CCParallelSearch — Fig. 3: parallel search CC with different
// epoch_flush pacing.
func BenchmarkE3CCParallelSearch(b *testing.B) {
	n, edges := benchGraph(b)
	for _, fe := range []int{1, 64, 1 << 30} {
		name := "flush-" + itoa(fe)
		if fe == 1<<30 {
			name = "flush-inf"
		}
		b.Run(name, func(b *testing.B) {
			var last *am.Universe
			for i := 0; i < b.N; i++ {
				u := am.New(4, am.WithThreads(2))
				d := distgraph.NewBlockDist(n, 4)
				g := distgraph.Build(d, edges, distgraph.Options{Symmetrize: true})
				lm := pmap.NewLockMap(d, 1)
				eng := pattern.NewEngine(u, g, lm, experiments.PaperPlan())
				c := algorithms.NewCC(eng, lm)
				c.FlushEvery = fe
				u.Run(func(r *am.Rank) { c.Run(r) })
				last = u
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.MsgsSent()), "msgs/op")
		})
	}
}

// BenchmarkE4PlannerModes — Fig. 5: planner compile cost and message counts
// for naive vs direct gather ordering.
func BenchmarkE4PlannerModes(b *testing.B) {
	for _, naive := range []bool{false, true} {
		name := "direct"
		if naive {
			name = "naive-dfs"
		}
		b.Run(name, func(b *testing.B) {
			tables := 0
			for i := 0; i < b.N; i++ {
				ts := experiments.E4Planner(experiments.Scale{})
				tables += len(ts)
			}
			_ = tables
		})
	}
}

// BenchmarkE5Coalescing — §IV: coalescing factor sweep.
func BenchmarkE5Coalescing(b *testing.B) {
	for _, cs := range []int{1, 16, 256} {
		b.Run("coalesce-"+itoa(cs), func(b *testing.B) {
			runSSSPBench(b, 4, []am.Option{am.WithThreads(2), am.WithCoalesce(cs)},
				experiments.PaperPlan(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkE6ReductionCache — §IV: the reduction cache of the hand-written
// SSSP.
func BenchmarkE6ReductionCache(b *testing.B) {
	n, edges := benchGraph(b)
	for _, cached := range []bool{false, true} {
		name := "cache-off"
		if cached {
			name = "cache-on"
		}
		b.Run(name, func(b *testing.B) {
			var msgs, suppressed int64
			for i := 0; i < b.N; i++ {
				u := am.New(4, am.WithThreads(2), am.WithCoalesce(256))
				d := distgraph.NewBlockDist(n, 4)
				g := distgraph.Build(d, edges, distgraph.Options{})
				h := algorithms.NewHandSSSP(u, g).Naive()
				if cached {
					h.WithReductionCache()
				}
				u.Run(func(r *am.Rank) { h.Run(r, 0) })
				msgs, suppressed = u.Stats.MsgsSent(), h.Suppressed()
			}
			b.StopTimer()
			b.ReportMetric(float64(msgs), "msgs/op")
			b.ReportMetric(float64(suppressed), "suppressed/op")
		})
	}
}

// BenchmarkE7Scaling — strong scaling over ranks × threads.
func BenchmarkE7Scaling(b *testing.B) {
	for _, rc := range [][2]int{{1, 1}, {2, 2}, {4, 2}, {8, 2}} {
		b.Run("ranks-"+itoa(rc[0])+"x"+itoa(rc[1]), func(b *testing.B) {
			runSSSPBench(b, rc[0], []am.Option{am.WithThreads(rc[1])},
				pattern.DefaultPlanOptions(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
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

// BenchmarkE8Termination — atomic vs four-counter detectors.
func BenchmarkE8Termination(b *testing.B) {
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		b.Run(det.String(), func(b *testing.B) {
			runSSSPBench(b, 4, []am.Option{am.WithThreads(2), am.WithDetector(det)},
				experiments.PaperPlan(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkE9AbstractionOverhead — pattern engine vs hand-written AM++.
func BenchmarkE9AbstractionOverhead(b *testing.B) {
	n, edges := benchGraph(b)
	b.Run("pattern", func(b *testing.B) {
		runSSSPBench(b, 4, []am.Option{am.WithThreads(2)},
			pattern.DefaultPlanOptions(),
			func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
	})
	b.Run("hand-written", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := am.New(4, am.WithThreads(2))
			d := distgraph.NewBlockDist(n, 4)
			g := distgraph.Build(d, edges, distgraph.Options{})
			h := algorithms.NewHandSSSP(u, g)
			u.Run(func(r *am.Rank) { h.Run(r, 0) })
		}
	})
}

// BenchmarkE10Folding — Fig. 6: with/without local-subexpression folding.
func BenchmarkE10Folding(b *testing.B) {
	for _, fold := range []bool{true, false} {
		name := "fold-on"
		if !fold {
			name = "fold-off"
		}
		b.Run(name, func(b *testing.B) {
			runSSSPBench(b, 4, []am.Option{am.WithThreads(2)},
				pattern.PlanOptions{Merge: true, Fold: fold},
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkE11PointerJump — §II-B: once(cc_jump) chain collapse.
func BenchmarkE11PointerJump(b *testing.B) {
	for _, L := range []int{64, 512} {
		b.Run("chain-"+itoa(L), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := am.New(4, am.WithThreads(1))
				d := distgraph.NewBlockDist(L, 4)
				g := distgraph.Build(d, gen.Path(L, gen.Weights{}, 0), distgraph.Options{})
				lm := pmap.NewLockMap(d, 1)
				eng := pattern.NewEngine(u, g, lm, experiments.PaperPlan())
				p := pattern.New("Jump")
				chg := p.VertexProp("chg")
				a := p.Action("cc_jump", pattern.None())
				cv := chg.At(pattern.V())
				cc := chg.AtVal(cv)
				a.If(pattern.Lt(cc, cv)).Set(chg.At(pattern.V()), cc)
				cmap := pmap.NewVertexWord(d, 0)
				bound, err := eng.Bind(p, pattern.Bindings{"chg": cmap})
				if err != nil {
					b.Fatal(err)
				}
				jump := bound.Action("cc_jump")
				u.Run(func(r *am.Rank) {
					cmap.ForEachLocal(r.ID(), func(v distgraph.Vertex, _ int64) {
						if v > 0 {
							cmap.Set(r.ID(), v, int64(v)-1)
						}
					})
					r.Barrier()
					locals := algorithms.LocalVertices(g, r)
					for strategy.Once(r, jump, locals) {
					}
				})
			}
		})
	}
}

// BenchmarkE12LightHeavy — §II-A: Δ-stepping with/without the light/heavy
// split.
func BenchmarkE12LightHeavy(b *testing.B) {
	b.Run("plain-delta-16", func(b *testing.B) {
		runSSSPBench(b, 4, []am.Option{am.WithThreads(2)},
			experiments.PaperPlan(),
			func(u *am.Universe, s *algorithms.SSSP) { s.UseDelta(u, 16) })
	})
	b.Run("light-heavy-16", func(b *testing.B) {
		runSSSPBench(b, 4, []am.Option{am.WithThreads(2)},
			experiments.PaperPlan(),
			func(u *am.Universe, s *algorithms.SSSP) { s.UseDeltaLightHeavy(u, 16) })
	})
}

// BenchmarkE13PageRank — §III-A: push (out-edges) vs pull (in-edges).
func BenchmarkE13PageRank(b *testing.B) {
	n, edges := benchGraph(b)
	for _, mode := range []algorithms.PageRankMode{algorithms.PageRankPush, algorithms.PageRankPull} {
		name := "push"
		gopts := distgraph.Options{}
		if mode == algorithms.PageRankPull {
			name = "pull"
			gopts.Bidirectional = true
		}
		b.Run(name, func(b *testing.B) {
			var last *am.Universe
			for i := 0; i < b.N; i++ {
				u := am.New(4, am.WithThreads(2))
				d := distgraph.NewBlockDist(n, 4)
				g := distgraph.Build(d, edges, gopts)
				eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), experiments.PaperPlan())
				pr := algorithms.NewPageRank(eng, mode)
				pr.MaxIters = 5
				pr.Tolerance = 0
				u.Run(func(r *am.Rank) { pr.Run(r) })
				last = u
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.MsgsSent()), "msgs/op")
		})
	}
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
		b.Run(v.name, func(b *testing.B) {
			runSSSPBench(b, 4, v.opts, experiments.PaperPlan(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkE19Lineage measures the causal lineage plane on the traced
// fixed-point SSSP: per-handler id stamping, parent propagation through
// coalescing, and the handler trace events, vs the same traced run with
// lineage forced off.
func BenchmarkE19Lineage(b *testing.B) {
	for _, v := range []struct {
		name string
		opts []am.Option
	}{
		{"lineage-off", []am.Option{am.WithThreads(2), am.WithTraceCapacity(1 << 20), am.WithLineage(am.LineageOff)}},
		{"lineage-on", []am.Option{am.WithThreads(2), am.WithTraceCapacity(1 << 20)}},
	} {
		b.Run(v.name, func(b *testing.B) {
			runSSSPBench(b, 4, v.opts, experiments.PaperPlan(),
				func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
		})
	}
}

// BenchmarkWireTransport measures the cost of real serialization (the
// fixed codec) on the engine's messages.
func BenchmarkWireTransport(b *testing.B) {
	for _, wire := range []bool{false, true} {
		name := "in-memory"
		if wire {
			name = "fixed-wire"
		}
		b.Run(name, func(b *testing.B) {
			n, edges := benchGraph(b)
			var last *am.Universe
			for i := 0; i < b.N; i++ {
				sb := newSSSPBench(am.New(4, am.WithThreads(2)), n, edges,
					experiments.PaperPlan(), // Direct would bypass the codec being measured
					func(u *am.Universe, s *algorithms.SSSP) { s.UseFixedPoint() })
				if wire {
					sb.eng.MsgType().WithWire()
				}
				sb.u.Run(func(r *am.Rank) { sb.s.Run(r, 0) })
				last = sb.u
			}
			b.StopTimer()
			b.ReportMetric(float64(last.Stats.WireBytes()), "wire-bytes/op")
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkMessageThroughput measures raw substrate throughput: messages
// delivered per second through coalescing + queues + handlers.
func BenchmarkMessageThroughput(b *testing.B) {
	for _, cs := range []int{1, 64} {
		b.Run("coalesce-"+itoa(cs), func(b *testing.B) {
			u := am.New(2, am.WithThreads(2), am.WithCoalesce(cs))
			mt := am.Register(u, "m", func(r *am.Rank, m int64) {})
			b.ResetTimer()
			u.Run(func(r *am.Rank) {
				r.Epoch(func(ep *am.Epoch) {
					if r.ID() != 0 {
						return
					}
					for i := 0; i < b.N; i++ {
						mt.SendTo(r, 1, int64(i))
					}
				})
			})
		})
	}
}

// BenchmarkEpochOverhead measures the fixed cost of an empty epoch
// (barriers + termination detection).
func BenchmarkEpochOverhead(b *testing.B) {
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		b.Run(det.String(), func(b *testing.B) {
			u := am.New(4, am.WithThreads(1), am.WithDetector(det))
			am.Register(u, "m", func(r *am.Rank, m int64) {})
			b.ResetTimer()
			u.Run(func(r *am.Rank) {
				for i := 0; i < b.N; i++ {
					r.Epoch(func(ep *am.Epoch) {})
				}
			})
		})
	}
}

// BenchmarkBuckets measures the Δ-stepping bucket structure.
func BenchmarkBuckets(b *testing.B) {
	u := am.New(1)
	u.Run(func(r *am.Rank) {
		bk := strategy.NewBuckets(r, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bk.Insert(distgraph.Vertex(i), int64(i%1024))
			if i%4 == 3 {
				idx := bk.MinNonEmpty()
				for j := 0; j < 4; j++ {
					bk.Pop(idx)
				}
			}
		}
	})
}

// BenchmarkGraphBuild measures distributed CSR construction.
func BenchmarkGraphBuild(b *testing.B) {
	n, edges := benchGraph(b)
	for _, bidir := range []bool{false, true} {
		name := "directed"
		if bidir {
			name = "bidirectional"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				distgraph.Build(distgraph.NewBlockDist(n, 4), edges, distgraph.Options{Bidirectional: bidir})
			}
		})
	}
}

// BenchmarkPatternCompile measures the §IV analysis + planning cost.
func BenchmarkPatternCompile(b *testing.B) {
	n := 16
	edges := gen.Path(n, gen.Weights{}, 0)
	for i := 0; i < b.N; i++ {
		u := am.New(1)
		d := distgraph.NewBlockDist(n, 1)
		g := distgraph.Build(d, edges, distgraph.Options{})
		lm := pmap.NewLockMap(d, 1)
		eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
		_, err := eng.Bind(algorithms.CCPattern(), pattern.Bindings{
			"pnt":  pmap.NewVertexWord(d, 0),
			"chg":  pmap.NewVertexWord(d, 0),
			"conf": pmap.NewVertexSet(d, lm),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeQuickstart exercises the public facade end to end.
func BenchmarkFacadeQuickstart(b *testing.B) {
	n, edges := declpat.RMAT(9, 8, declpat.WeightSpec{Min: 1, Max: 10}, 3)
	for i := 0; i < b.N; i++ {
		u := declpat.New(2, declpat.WithThreads(1))
		d := declpat.NewBlockDist(n, 2)
		g := declpat.BuildGraph(d, edges, declpat.GraphOptions{})
		eng := declpat.NewEngine(u, g, declpat.NewLockMap(d, 1), declpat.DefaultPlanOptions())
		s := declpat.NewSSSP(eng)
		u.Run(func(r *declpat.Rank) { s.Run(r, 0) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
