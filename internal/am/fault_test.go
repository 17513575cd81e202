package am

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// chatterPayload is a wire-safe payload with a per-message identity so tests
// can assert exactly-once handling.
type chatterPayload struct {
	ID  int64
	Hop int64
}

// runChatter runs a two-epoch all-to-all workload where every handler
// forwards the message once (Hop 0 → Hop 1), exercising handler sends,
// multiple epochs, and every rank pair. It returns per-message delivery
// counts (index = message ID) and the number of user messages sent.
func runChatter(t *testing.T, cfg config, perRank int) ([]int64, int64) {
	t.Helper()
	u := newUniverse(cfg)
	n := cfg.Ranks
	total := 2 * n * perRank // each seed message is forwarded once
	counts := make([]int64, total)
	var mt *MsgType[chatterPayload]
	mt = Register(u, "chatter", func(r *Rank, m chatterPayload) {
		atomic.AddInt64(&counts[m.ID], 1)
		if m.Hop == 0 {
			mt.SendTo(r, (r.ID()+1)%r.N(), chatterPayload{ID: m.ID + int64(n*perRank), Hop: 1})
		}
	})
	u.Run(func(r *Rank) {
		for epoch := 0; epoch < 2; epoch++ {
			r.Epoch(func(ep *Epoch) {
				base := epoch * n * perRank / 2
				for i := 0; i < perRank/2; i++ {
					id := int64(base + r.ID()*perRank/2 + i)
					mt.SendTo(r, (r.ID()+1+i)%r.N(), chatterPayload{ID: id, Hop: 0})
				}
			})
		}
	})
	return counts, u.Stats.MsgsSent()
}

// checkExactlyOnce fails the test unless every message was handled exactly
// once, printing the fault seed so a failure is reproducible.
func checkExactlyOnce(t *testing.T, counts []int64, seed uint64) {
	t.Helper()
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("message %d handled %d times, want exactly once (FaultPlan seed %d)", id, c, seed)
		}
	}
}

func TestReliableExactlyOnceUnderFaults(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		for _, threads := range []int{0, 2} {
			name := fmt.Sprintf("%s/threads=%d", det, threads)
			t.Run(name, func(t *testing.T) {
				const seed = 1234
				plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.1, Delay: 0.1}
				cfg := config{Ranks: 4, ThreadsPerRank: threads, CoalesceSize: 4,
					Detector: det, FaultPlan: plan}
				counts, sent := runChatter(t, cfg, 64)
				checkExactlyOnce(t, counts, seed)
				if sent != int64(len(counts)) {
					t.Fatalf("MsgsSent = %d, want %d", sent, len(counts))
				}
			})
		}
	}
}

// TestFaultCountersObservable asserts the injected faults are visible in
// Stats: at a 20% drop rate the run must record drops, retransmits to
// recover them, duplicates, suppressed duplicates, and acks.
func TestFaultCountersObservable(t *testing.T) {
	const seed = 7
	plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.15, Delay: 0.1}
	cfg := config{Ranks: 3, ThreadsPerRank: 1, CoalesceSize: 2, FaultPlan: plan}
	u := newUniverse(cfg)
	mt := Register(u, "ping", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < 200; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), int64(i))
			}
		})
	})
	s := u.Stats.Snapshot()
	if s.EnvelopesDropped == 0 || s.Retransmits == 0 {
		t.Fatalf("expected drops and retransmits, got %+v (seed %d)", s, seed)
	}
	if s.EnvelopesDuplicated == 0 || s.DupsSuppressed == 0 {
		t.Fatalf("expected duplicates and suppressions, got %+v (seed %d)", s, seed)
	}
	if s.AckMsgs == 0 {
		t.Fatalf("expected acks, got %+v (seed %d)", s, seed)
	}
	if s.HandlersRun != s.MsgsSent {
		t.Fatalf("HandlersRun %d != MsgsSent %d: lost or duplicated messages (seed %d)",
			s.HandlersRun, s.MsgsSent, seed)
	}
}

// TestFourCounterPollOnlyUnderDrops covers the previously untested
// combination: DetectorFourCounter with ThreadsPerRank 0 (messages are
// delivered only when a rank polls) while envelopes are being dropped,
// duplicated, and reordered. The four-counter protocol must still terminate
// each epoch exactly once per message.
func TestFourCounterPollOnlyUnderDrops(t *testing.T) {
	const seed = 99
	plan := &FaultPlan{Seed: seed, Drop: 0.2, Dup: 0.1, Delay: 0.15}
	cfg := config{Ranks: 3, ThreadsPerRank: 0, CoalesceSize: 3,
		Detector: DetectorFourCounter, FaultPlan: plan}
	counts, _ := runChatter(t, cfg, 60)
	checkExactlyOnce(t, counts, seed)
}

// TestWireCorruptionDetectedAndRecovered injects payload corruption into a
// wire type: every corrupted envelope must be detected by the wire checksum,
// counted, and recovered by retransmission, with no handler ever observing
// damaged data.
func TestWireCorruptionDetectedAndRecovered(t *testing.T) {
	const seed = 5150
	plan := &FaultPlan{Seed: seed, Corrupt: 0.3}
	cfg := config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4, FaultPlan: plan}
	u := newUniverse(cfg)
	var bad atomic.Int64
	var handled atomic.Int64
	mt := Register(u, "wire", func(r *Rank, m chatterPayload) {
		handled.Add(1)
		if m.Hop != m.ID*3 {
			bad.Add(1)
		}
	})
	const per = 300
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, 1-r.ID(), chatterPayload{ID: int64(i), Hop: int64(i) * 3})
			}
		})
	})
	if got := handled.Load(); got != 2*per {
		t.Fatalf("handled %d, want %d (seed %d)", got, 2*per, seed)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d handlers observed corrupted payloads (seed %d)", bad.Load(), seed)
	}
	if u.Stats.CorruptionsDetected() == 0 {
		t.Fatalf("no corruptions detected at 30%% corruption rate (seed %d)", seed)
	}
	if u.Stats.Retransmits() == 0 {
		t.Fatalf("corrupted envelopes were not retransmitted (seed %d)", seed)
	}
}

// TestReliableZeroRatesProtocolOnly runs the reliable protocol with all
// fault rates zero: pure protocol overhead, no faults, exact delivery.
func TestReliableZeroRatesProtocolOnly(t *testing.T) {
	cfg := config{Ranks: 3, ThreadsPerRank: 2, FaultPlan: &FaultPlan{Seed: 1}}
	counts, _ := runChatter(t, cfg, 40)
	checkExactlyOnce(t, counts, 1)
}

// TestReliableDeterministicSchedule runs an identical single-rank,
// poll-only workload twice: with one goroutine the whole execution is
// sequential, so the stateless fault schedule must reproduce the exact same
// counter values run to run.
func TestReliableDeterministicSchedule(t *testing.T) {
	run := func() Snapshot {
		plan := &FaultPlan{Seed: 42, Drop: 0.25, Dup: 0.2, Delay: 0.2}
		u := newUniverse(config{Ranks: 1, ThreadsPerRank: 0, CoalesceSize: 2, FaultPlan: plan})
		mt := Register(u, "self", func(r *Rank, m int64) {})
		u.Run(func(r *Rank) {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 500; i++ {
					mt.SendTo(r, 0, int64(i))
				}
			})
		})
		return u.Stats.Snapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault schedule:\n run1 %+v\n run2 %+v", a, b)
	}
	if a.EnvelopesDropped == 0 || a.Retransmits == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestShutdownStress hammers the Universe.Run teardown path — four-counter
// waves, handler threads, and the reliable layer's retransmit polling all
// winding down at epoch end — to demonstrate the absence of a
// send-on-closed-channel race between the inbox teardown and late
// retransmit activity. Run with -race.
func TestShutdownStress(t *testing.T) {
	for i := 0; i < 30; i++ {
		plan := &FaultPlan{Seed: uint64(i), Drop: 0.15, Dup: 0.1, Delay: 0.1,
			retransmitBase: 1}
		u := newUniverse(config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 1,
			Detector: DetectorFourCounter, FaultPlan: plan})
		var got atomic.Int64
		mt := Register(u, "m", func(r *Rank, m int64) { got.Add(1) })
		err := u.Run(func(r *Rank) {
			// Several tiny epochs so teardown happens right after
			// termination-detection and retransmit activity.
			for e := 0; e < 4; e++ {
				r.Epoch(func(ep *Epoch) {
					for d := 0; d < r.N(); d++ {
						mt.SendTo(r, d, int64(d))
					}
				})
			}
		})
		// The error is the primary symptom: a rank fault (e.g. a link
		// declared dead) unwinds the run, and the handler count below is
		// then merely short.
		if err != nil {
			t.Fatalf("iteration %d: Run: %v", i, err)
		}
		want := int64(4 * 4 * 4)
		if got.Load() != want {
			t.Fatalf("iteration %d: handled %d, want %d", i, got.Load(), want)
		}
	}
}

// TestRetransmitCeilingSparesAnUnpolledReceiver: the retransmit clock ticks
// per sender poll, so a sender may retransmit far past maxAttempts while the
// receiver's only goroutine is busy elsewhere. Transmissions the receiver
// never had the chance to answer must not be charged against the ceiling:
// the link is fine, and the envelope is acknowledged as soon as the receiver
// polls. (A receiver that polls and still never answers is a dead link; see
// TestLinkDeadWithoutRecoveryFails.)
func TestRetransmitCeilingSparesAnUnpolledReceiver(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 0,
		FaultPlan: &FaultPlan{retransmitBase: 1, maxAttempts: 3}})
	var got atomic.Int64
	mt := Register(u, "m", func(r *Rank, m int64) { got.Add(1) })
	senderDone := make(chan struct{})
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			if r.ID() == 1 {
				<-senderDone // in its body, not polling its inbox
				return
			}
			defer close(senderDone) // also when a link fault unwinds this body
			mt.SendTo(r, 1, 7)
			for i := 0; i < 1000; i++ {
				ep.Flush() // every flush ticks the clock and retransmits what is due
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Load() != 1 || u.Stats.LinkDeaths() != 0 {
		t.Fatalf("handled %d (want 1), link deaths %d (want 0)", got.Load(), u.Stats.LinkDeaths())
	}
	if u.Stats.Retransmits() <= 3 {
		t.Fatalf("only %d retransmits: the sender never went past the ceiling", u.Stats.Retransmits())
	}
}

// TestRetransmitCeilingSparesABackloggedReceiver: a receiver that is polling —
// but is still working through what was queued ahead of a transmission — has
// not had the chance to answer it either. Rank 1 handles one envelope per 20
// sender ticks, so the last of 48 envelopes waits ~1000 ticks in its inbox
// while the sender retransmits it far past maxAttempts. None of that may be
// charged: the link is fine, the inbox is long.
func TestRetransmitCeilingSparesABackloggedReceiver(t *testing.T) {
	const envelopes = 48
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 0, CoalesceSize: 1,
		FaultPlan: &FaultPlan{retransmitBase: 1, maxAttempts: 3}})
	var got atomic.Int64
	tokens := make(chan struct{}, 1)
	mt := Register(u, "m", func(r *Rank, m int64) {
		<-tokens
		got.Add(1)
	})
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			if r.ID() == 1 {
				return // handles in its progress loop, one envelope per token
			}
			defer close(tokens) // also when a link fault unwinds this body
			for i := 0; i < envelopes; i++ {
				mt.SendTo(r, 1, int64(i))
			}
			for i := 0; got.Load() < envelopes && i < 1_000_000; i++ {
				ep.Flush() // every flush ticks the clock and retransmits what is due
				if i%20 == 0 {
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got.Load() != envelopes || u.Stats.LinkDeaths() != 0 {
		t.Fatalf("handled %d (want %d), link deaths %d (want 0)", got.Load(), envelopes, u.Stats.LinkDeaths())
	}
	if u.Stats.Retransmits() <= 3*envelopes {
		t.Fatalf("only %d retransmits: the sender never went past the ceiling", u.Stats.Retransmits())
	}
}

// TestTrustedShutdownStress is the same teardown stress without a fault
// plan, guarding the original transport's shutdown ordering.
func TestTrustedShutdownStress(t *testing.T) {
	for i := 0; i < 30; i++ {
		u := newUniverse(config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 1,
			Detector: DetectorFourCounter})
		var got atomic.Int64
		mt := Register(u, "m", func(r *Rank, m int64) { got.Add(1) })
		u.Run(func(r *Rank) {
			for e := 0; e < 4; e++ {
				r.Epoch(func(ep *Epoch) {
					for d := 0; d < r.N(); d++ {
						mt.SendTo(r, d, int64(d))
					}
				})
			}
		})
		if want := int64(4 * 4 * 4); got.Load() != want {
			t.Fatalf("iteration %d: handled %d, want %d", i, got.Load(), want)
		}
	}
}
