package am

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// configs exercised by the matrix tests.
func testConfigs() []config {
	return []config{
		{Ranks: 1, ThreadsPerRank: 0},
		{Ranks: 1, ThreadsPerRank: 2},
		{Ranks: 2, ThreadsPerRank: 1},
		{Ranks: 4, ThreadsPerRank: 2},
		{Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 1},
		{Ranks: 4, ThreadsPerRank: 2, Detector: DetectorFourCounter},
		{Ranks: 2, ThreadsPerRank: 0, Detector: DetectorFourCounter},
	}
}

func TestEpochDeliversAll(t *testing.T) {
	for _, cfg := range testConfigs() {
		cfg := cfg
		t.Run(cfg.Detector.String()+"/"+itoa(cfg.Ranks)+"x"+itoa(cfg.ThreadsPerRank), func(t *testing.T) {
			u := newUniverse(cfg)
			var handled atomic.Int64
			mt := Register(u, "ping", func(r *Rank, m int64) {
				handled.Add(1)
			})
			const per = 500
			u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					for i := 0; i < per; i++ {
						mt.SendTo(r, (r.ID()+1)%r.N(), int64(i))
					}
				})
			})
			want := int64(per * cfg.Ranks)
			if got := handled.Load(); got != want {
				t.Fatalf("handled %d messages, want %d", got, want)
			}
			if got := u.Stats.MsgsSent(); got != want {
				t.Fatalf("MsgsSent = %d, want %d", got, want)
			}
			if got := u.Stats.HandlersRun(); got != want {
				t.Fatalf("HandlersRun = %d, want %d", got, want)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestHandlerChains verifies the AM++ property that handlers may send: a
// message with TTL k forwards to a random-ish next rank with TTL k-1, and
// the epoch must not end until the whole cascade has drained.
func TestHandlerChains(t *testing.T) {
	for _, cfg := range testConfigs() {
		cfg := cfg
		t.Run(cfg.Detector.String()+"/"+itoa(cfg.Ranks)+"x"+itoa(cfg.ThreadsPerRank), func(t *testing.T) {
			u := newUniverse(cfg)
			var handled atomic.Int64
			var mt *MsgType[int64]
			mt = Register(u, "ttl", func(r *Rank, ttl int64) {
				handled.Add(1)
				if ttl > 0 {
					mt.SendTo(r, int(ttl)%r.N(), ttl-1)
				}
			})
			const ttl0 = 50
			u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					mt.SendTo(r, 0, int64(ttl0))
				})
				// The epoch guarantee: by now every TTL step ran.
				if got := handled.Load(); got != int64(cfg.Ranks*(ttl0+1)) {
					t.Errorf("rank %d after epoch: handled=%d want %d", r.ID(), got, cfg.Ranks*(ttl0+1))
				}
			})
		})
	}
}

// TestHandlerFanout: each handled message fans out to two more until depth
// exhausts; total must be exactly 2^(d+1)-1 per root.
func TestHandlerFanout(t *testing.T) {
	u := newUniverse(config{Ranks: 4, ThreadsPerRank: 2})
	var handled atomic.Int64
	var mt *MsgType[int32]
	mt = Register(u, "fan", func(r *Rank, depth int32) {
		handled.Add(1)
		if depth > 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), depth-1)
			mt.SendTo(r, (r.ID()+2)%r.N(), depth-1)
		}
	})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			if r.ID() == 0 {
				mt.SendTo(r, 0, 10)
			}
		})
	})
	want := int64(1<<11 - 1)
	if got := handled.Load(); got != want {
		t.Fatalf("handled = %d, want %d", got, want)
	}
}

func TestMultipleEpochs(t *testing.T) {
	u := newUniverse(config{Ranks: 3, ThreadsPerRank: 1})
	var handled atomic.Int64
	mt := Register(u, "m", func(r *Rank, m int32) { handled.Add(1) })
	const epochs = 5
	u.Run(func(r *Rank) {
		for e := 0; e < epochs; e++ {
			before := handled.Load()
			_ = before
			r.Epoch(func(ep *Epoch) {
				mt.SendTo(r, (r.ID()+e)%r.N(), int32(e))
			})
			// Epoch boundary is a full barrier: totals are multiples
			// of Ranks after each epoch.
			if got := handled.Load(); got != int64(3*(e+1)) {
				t.Fatalf("epoch %d: handled=%d want %d", e, got, 3*(e+1))
			}
		}
	})
	if got := u.Stats.Epochs(); got != epochs {
		t.Fatalf("Epochs stat = %d, want %d", got, epochs)
	}
}

func TestObjectAddressing(t *testing.T) {
	u := newUniverse(config{Ranks: 4, ThreadsPerRank: 1})
	var wrongRank atomic.Int64
	mt := Register(u, "obj", func(r *Rank, m int64) {
		if int(m%4) != r.ID() {
			wrongRank.Add(1)
		}
	}).WithAddresser(func(m int64) int { return int(m % 4) })
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := int64(0); i < 100; i++ {
				mt.Send(r, i)
			}
		})
	})
	if wrongRank.Load() != 0 {
		t.Fatalf("%d messages routed to the wrong rank", wrongRank.Load())
	}
}

func TestCoalescingEnvelopeCounts(t *testing.T) {
	const n = 1000
	// With coalescing factor c, rank 0 sending n messages to rank 1 in
	// one epoch ships ceil(n/c) envelopes, whether it sends them one SendTo
	// at a time or as one SendAll run.
	for _, c := range []int{1, 16, 64, 1000, 4096} {
		for _, all := range []bool{false, true} {
			u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: c})
			var sum atomic.Int64
			mt := Register(u, "m", func(r *Rank, m int64) { sum.Add(m) })
			u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					if r.ID() != 0 {
						return
					}
					ms := make([]int64, n)
					for i := range ms {
						ms[i] = int64(i)
						if !all {
							mt.SendTo(r, 1, ms[i])
						}
					}
					if all {
						mt.SendAll(r, 1, ms)
					}
				})
			})
			want := int64((n + c - 1) / c)
			if got := u.Stats.Envelopes(); got != want {
				t.Fatalf("coalesce=%d SendAll=%v: envelopes=%d want %d", c, all, got, want)
			}
			wantBytes := int64(n*8) + want*envelopeHeaderBytes
			if got := u.Stats.BytesSent(); got != wantBytes {
				t.Fatalf("coalesce=%d SendAll=%v: bytes=%d want %d", c, all, got, wantBytes)
			}
			if got := sum.Load(); got != n*(n-1)/2 {
				t.Fatalf("coalesce=%d SendAll=%v: handlers summed %d, want %d", c, all, got, n*(n-1)/2)
			}
		}
	}
}

func TestSendOutsideEpochPanics(t *testing.T) {
	u := newUniverse(config{Ranks: 1, ThreadsPerRank: 0})
	mt := Register(u, "m", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic sending outside an epoch")
			}
		}()
		mt.SendTo(r, 0, 1)
	})
}

func TestFlushMakesProgress(t *testing.T) {
	// With zero handler threads, messages are only handled at Flush or
	// epoch end — Flush must deliver everything buffered so far,
	// including handler-generated follow-ups.
	u := newUniverse(config{Ranks: 1, ThreadsPerRank: 0})
	var handled atomic.Int64
	var mt *MsgType[int64]
	mt = Register(u, "m", func(r *Rank, ttl int64) {
		handled.Add(1)
		if ttl > 0 {
			mt.SendTo(r, 0, ttl-1)
		}
	})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			mt.SendTo(r, 0, 9)
			if handled.Load() != 0 {
				t.Error("no handler threads: nothing should be handled before Flush")
			}
			ep.Flush()
			if got := handled.Load(); got != 10 {
				t.Errorf("after Flush: handled=%d want 10", got)
			}
		})
	})
}

func TestTryFinishWithAuxWork(t *testing.T) {
	// Model the distributed Δ-stepping loop: handlers deposit rank-local
	// work items (AuxAdd); bodies consume them and call TryFinish when
	// empty. The epoch must not terminate while deposited work remains.
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{Ranks: 3, ThreadsPerRank: 1, Detector: det})
			type unit = struct{}
			_ = unit{}
			var deposited [3]atomic.Int64 // per-rank local "buckets"
			var consumed atomic.Int64
			var mt *MsgType[int64]
			mt = Register(u, "work", func(r *Rank, gens int64) {
				// Deposit a local work unit that, when consumed,
				// sends the next generation.
				r.AuxAdd(1)
				deposited[r.ID()].Add(1)
				_ = gens
			})
			const gens = 5
			u.Run(func(r *Rank) {
				gen := int64(0)
				r.Epoch(func(ep *Epoch) {
					mt.SendTo(r, (r.ID()+1)%r.N(), gen)
					for {
						// Consume all local deposits.
						for deposited[r.ID()].Load() > 0 {
							deposited[r.ID()].Add(-1)
							ep.AuxAdd(-1)
							consumed.Add(1)
							gen++
							if gen < gens {
								mt.SendTo(r, (r.ID()+1)%r.N(), gen)
							}
						}
						if ep.TryFinish() {
							return
						}
					}
				})
			})
			want := int64(3 * gens)
			if got := consumed.Load(); got != want {
				t.Fatalf("consumed=%d want %d", got, want)
			}
		})
	}
}

func TestFourCounterUsesControlMessages(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, Detector: DetectorFourCounter})
	mt := Register(u, "m", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			mt.SendTo(r, 1-r.ID(), 1)
		})
	})
	if u.Stats.CtrlMsgs() == 0 || u.Stats.TDWaves() < 2 {
		t.Fatalf("four-counter detector should exchange control messages over >=2 waves; ctrl=%d waves=%d",
			u.Stats.CtrlMsgs(), u.Stats.TDWaves())
	}
}

func TestTypeStats(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4})
	a := Register(u, "alpha", func(r *Rank, m int64) {})
	b := Register(u, "beta", func(r *Rank, m int32) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			if r.ID() == 0 {
				for i := 0; i < 30; i++ {
					a.SendTo(r, 1, int64(i))
				}
				for i := 0; i < 7; i++ {
					b.SendTo(r, 1, int32(i))
				}
			}
		})
	})
	ts := u.TypeStats()
	if len(ts) != 2 {
		t.Fatalf("%d type stats", len(ts))
	}
	if ts[0].Name != "alpha" || ts[0].Sent != 30 || ts[0].Handled != 30 || ts[0].Size != 8 {
		t.Fatalf("alpha: %+v", ts[0])
	}
	if ts[1].Name != "beta" || ts[1].Sent != 7 || ts[1].Handled != 7 || ts[1].Size != 4 {
		t.Fatalf("beta: %+v", ts[1])
	}
	if ts[0].Envelopes != 8 { // ceil(30/4)
		t.Fatalf("alpha envelopes: %d", ts[0].Envelopes)
	}
}

func TestBarrierAndCollectives(t *testing.T) {
	u := newUniverse(config{Ranks: 5, ThreadsPerRank: 0})
	u.Run(func(r *Rank) {
		sum := r.AllReduceSum(int64(r.ID()))
		if sum != 0+1+2+3+4 {
			t.Errorf("sum=%d", sum)
		}
		min := r.AllReduceMin(int64(10 - r.ID()))
		if min != 6 {
			t.Errorf("min=%d", min)
		}
		max := r.AllReduceMax(int64(r.ID() * 2))
		if max != 8 {
			t.Errorf("max=%d", max)
		}
		if !r.AllReduceOr(r.ID() == 3) {
			t.Error("or should be true")
		}
		if r.AllReduceOr(false) {
			t.Error("or should be false")
		}
		g := r.AllGatherInt64(int64(r.ID() * r.ID()))
		for i, v := range g {
			if v != int64(i*i) {
				t.Errorf("gather[%d]=%d", i, v)
			}
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	u := newUniverse(config{Ranks: 1})
	u.Run(func(r *Rank) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	u.Run(func(r *Rank) {})
}

func TestRegisterAfterRunPanics(t *testing.T) {
	u := newUniverse(config{Ranks: 1})
	u.Run(func(r *Rank) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after Run")
		}
	}()
	Register(u, "late", func(r *Rank, m int64) {})
}

// TestDelayInjection verifies termination detection never fires early when
// handlers stall at adversarial points: each handler yields the scheduler a
// pseudo-random number of times before and after sending follow-ups, pulling
// the counters through every interleaving class. The invariant stays exact:
// handled == sent, and each epoch's cascade is complete at epoch exit.
func TestDelayInjection(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{Ranks: 3, ThreadsPerRank: 2, Detector: det, CoalesceSize: 4})
			var handled atomic.Int64
			var mt *MsgType[uint64]
			mt = Register(u, "slow", func(r *Rank, x uint64) {
				x = x*6364136223846793005 + 1442695040888963407
				for i := uint64(0); i < x%7; i++ {
					runtime.Gosched()
				}
				handled.Add(1)
				if x%3 == 0 {
					mt.SendTo(r, int(x>>32)%r.N(), x)
					for i := uint64(0); i < x%5; i++ {
						runtime.Gosched()
					}
					if x%9 == 0 {
						mt.SendTo(r, int(x>>16)%r.N(), x+1)
					}
				}
			})
			u.Run(func(r *Rank) {
				for e := 0; e < 3; e++ {
					before := u.Stats.MsgsSent()
					_ = before
					r.Epoch(func(ep *Epoch) {
						for i := 0; i < 40; i++ {
							mt.SendTo(r, i%r.N(), uint64(r.ID()*1000+i+e*7))
						}
					})
					// Epoch guarantee: all sent messages handled.
					r.Barrier()
					if got, want := handled.Load(), u.Stats.MsgsSent(); got != want {
						t.Errorf("epoch %d: handled=%d sent=%d", e, got, want)
					}
					r.Barrier()
				}
			})
		})
	}
}

// TestStressDiffusion is a randomized termination-detection stress test:
// every handled message forwards to (id*7+3)%N with probability depending on
// a deterministic counter, creating irregular bursts. The invariant is
// exact: messages handled == messages sent, and the epoch returns.
func TestStressDiffusion(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{Ranks: 4, ThreadsPerRank: 3, Detector: det, CoalesceSize: 8})
			var handled atomic.Int64
			var mt *MsgType[uint64]
			mt = Register(u, "diff", func(r *Rank, x uint64) {
				handled.Add(1)
				x = x*6364136223846793005 + 1442695040888963407
				// Forward with ~1/2 probability, occasionally twice;
				// expected offspring ≈ 0.56 keeps the cascade
				// subcritical so it dies out quickly.
				if x>>63 != 0 {
					mt.SendTo(r, int(x>>32)%r.N(), x)
				}
				if x&15 == 0 {
					mt.SendTo(r, int(x>>16)%r.N(), x+1)
				}
			})
			u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					for i := 0; i < 64; i++ {
						mt.SendTo(r, i%r.N(), uint64(r.ID()*1000+i))
					}
				})
			})
			if got, want := handled.Load(), u.Stats.MsgsSent(); got != want {
				t.Fatalf("handled=%d sent=%d", got, want)
			}
		})
	}
}
