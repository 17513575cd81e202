package am

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sliceCkpt is a minimal Checkpointer: one int64 accumulator slot per rank.
type sliceCkpt struct {
	vals []int64
}

func newSliceCkpt(ranks int) *sliceCkpt { return &sliceCkpt{vals: make([]int64, ranks)} }

func (c *sliceCkpt) SnapshotRank(rank int) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(c.vals[rank]))
}

func (c *sliceCkpt) RestoreRank(rank int, b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("sliceCkpt: %d-byte snapshot", len(b))
	}
	c.vals[rank] = int64(binary.LittleEndian.Uint64(b))
	return nil
}

func (c *sliceCkpt) add(rank int, x int64) { atomic.AddInt64(&c.vals[rank], x) }
func (c *sliceCkpt) sum() (s int64)        { return sumInt64(c.vals) }
func sumInt64(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return
}

// ringSum runs a ring workload (each rank sends per values to its successor,
// the handler accumulates into a checkpointed per-rank slot) and returns the
// run error plus the accumulated total. A non-nil hook runs inside each
// handler before accumulation.
func ringSum(u *Universe, per int, hook func(r *Rank, m int64)) (error, int64) {
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m int64) {
		if hook != nil {
			hook(r, m)
		}
		ck.add(r.ID(), m)
	})
	err := u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), int64(i+1))
			}
		})
	})
	return err, ck.sum()
}

// ringWant is the fault-free total of ringSum.
func ringWant(ranks, per int) int64 { return int64(ranks) * int64(per) * int64(per+1) / 2 }

// TestHandlerPanicRecovered arms a one-shot handler panic mid-epoch: the
// panic must be contained as a rank fault, the epoch must roll back to its
// checkpoint and replay, and the run must complete with the exact fault-free
// result.
func TestHandlerPanicRecovered(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{
				Ranks: 3, ThreadsPerRank: 2, Detector: det,
				FaultPlan: &FaultPlan{Seed: 42}, Recovery: true,
			})
			var armed atomic.Bool
			armed.Store(true)
			var seen atomic.Int64 // rank 1 has two handler threads
			err, got := ringSum(u, 200, func(r *Rank, m int64) {
				if r.ID() == 1 {
					if seen.Add(1) > 50 && armed.CompareAndSwap(true, false) {
						panic("injected handler bug")
					}
				}
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := ringWant(3, 200); got != want {
				t.Fatalf("sum = %d after recovery, want %d", got, want)
			}
			s := u.Stats.Snapshot()
			if s.HandlerPanics != 1 {
				t.Fatalf("HandlerPanics = %d, want 1", s.HandlerPanics)
			}
			if s.Recoveries < 1 || s.EpochAborts < 1 || s.Checkpoints == 0 {
				t.Fatalf("recovery not exercised: %+v", s)
			}
		})
	}
}

// TestHandlerPanicWithoutRecoveryFails: with containment on (fault plan set)
// but recovery off, a handler panic must surface as a descriptive Run error
// — not a process abort.
func TestHandlerPanicWithoutRecoveryFails(t *testing.T) {
	u := newUniverse(config{
		Ranks: 2, ThreadsPerRank: 1,
		FaultPlan: &FaultPlan{Seed: 7},
	})
	var armed atomic.Bool
	armed.Store(true)
	err, _ := ringSum(u, 50, func(r *Rank, m int64) {
		if armed.CompareAndSwap(true, false) {
			panic("injected handler bug")
		}
	})
	if err == nil {
		t.Fatal("Run returned nil after an uncontained handler panic")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "Recovery disabled") {
		t.Fatalf("error lacks panic context: %v", err)
	}
	if u.Stats.HandlerPanics() != 1 {
		t.Fatalf("HandlerPanics = %d, want 1", u.Stats.HandlerPanics())
	}
}

// TestCrashRecovered injects crash-stop failures (epoch entry and mid-epoch)
// and requires exact results after rollback/replay.
func TestCrashRecovered(t *testing.T) {
	cases := map[string][]Crash{
		"entry": {{Rank: 1, Epoch: 0}},
		"mid":   {{Rank: 0, Epoch: 0, AfterHandled: 10}},
	}
	for name, crashes := range cases {
		t.Run(name, func(t *testing.T) {
			u := newUniverse(config{
				Ranks: 3, ThreadsPerRank: 2,
				FaultPlan: &FaultPlan{Seed: 11, Crashes: crashes},
				Recovery:  true,
			})
			err, got := ringSum(u, 200, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if want := ringWant(3, 200); got != want {
				t.Fatalf("sum = %d after recovery, want %d", got, want)
			}
			s := u.Stats.Snapshot()
			if s.RankCrashes != 1 || s.Recoveries < 1 {
				t.Fatalf("crash/recovery not exercised: crashes=%d recoveries=%d", s.RankCrashes, s.Recoveries)
			}
		})
	}
}

// TestCrashWithoutRecoveryFails: an injected crash with recovery disabled
// must fail the run with a descriptive error.
func TestCrashWithoutRecoveryFails(t *testing.T) {
	u := newUniverse(config{
		Ranks:     2,
		FaultPlan: &FaultPlan{Seed: 3, Crashes: []Crash{{Rank: 1, Epoch: 0}}},
	})
	err, _ := ringSum(u, 50, nil)
	if err == nil {
		t.Fatal("Run returned nil after an unrecoverable crash")
	}
	if !strings.Contains(err.Error(), "crash") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error lacks crash context: %v", err)
	}
}

// TestLinkDeadWithoutRecoveryFails: a dead link must exhaust the retransmit
// ceiling into a structured error — the panic this path used to be — when
// recovery is off.
func TestLinkDeadWithoutRecoveryFails(t *testing.T) {
	u := newUniverse(config{
		Ranks: 2, ThreadsPerRank: 1,
		FaultPlan: &FaultPlan{
			Seed: 5, retransmitBase: 1, maxAttempts: 3,
			DeadLinks: []DeadLink{{Src: 0, Dest: 1, Epoch: 0}},
		},
	})
	err, _ := ringSum(u, 20, nil)
	if err == nil {
		t.Fatal("Run returned nil with a permanently dead link")
	}
	if !strings.Contains(err.Error(), "link-dead") && !strings.Contains(err.Error(), "dead after") {
		t.Fatalf("error lacks link-death context: %v", err)
	}
	if u.Stats.LinkDeaths() == 0 {
		t.Fatal("LinkDeaths = 0")
	}
}

// TestLinkDeadRecovered: the same dead link with recovery on must heal the
// link during rollback and complete exactly.
func TestLinkDeadRecovered(t *testing.T) {
	u := newUniverse(config{
		Ranks: 2, ThreadsPerRank: 1,
		FaultPlan: &FaultPlan{
			Seed: 5, retransmitBase: 1, maxAttempts: 3,
			DeadLinks: []DeadLink{{Src: 0, Dest: 1, Epoch: 0}},
		},
		Recovery: true,
	})
	err, got := ringSum(u, 20, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := ringWant(2, 20); got != want {
		t.Fatalf("sum = %d after link-death recovery, want %d", got, want)
	}
	if u.Stats.LinkDeaths() == 0 || u.Stats.Recoveries() == 0 {
		t.Fatalf("link death not exercised: deaths=%d recoveries=%d",
			u.Stats.LinkDeaths(), u.Stats.Recoveries())
	}
}

// TestWatchdogConvertsWedge registers deferred work nobody consumes — the
// classic silent wedge: both detectors correctly refuse to end the epoch and
// the run would hang forever. The watchdog must convert the hang into a
// diagnostic failure carrying the trace-ring tail.
func TestWatchdogConvertsWedge(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{
				Ranks: 2, ThreadsPerRank: 1, Detector: det,
				Watchdog: 200 * time.Millisecond, TraceCapacity: 256,
			})
			mt := Register(u, "noop", func(r *Rank, m int64) {})
			err := u.Run(func(r *Rank) {
				r.Epoch(func(ep *Epoch) {
					mt.SendTo(r, (r.ID()+1)%r.N(), 1)
					if r.ID() == 0 {
						// Deferred work that is never consumed: the epoch
						// can never legitimately terminate.
						ep.AuxAdd(1)
					}
					for !ep.TryFinish() {
					}
				})
			})
			if err == nil {
				t.Fatal("Run returned nil on a wedged epoch")
			}
			msg := err.Error()
			if !strings.Contains(msg, "watchdog") || !strings.Contains(msg, "no progress") {
				t.Fatalf("error lacks watchdog context: %v", err)
			}
			if !strings.Contains(msg, "diagnostic dump") || !strings.Contains(msg, "trace tail") {
				t.Fatalf("error lacks diagnostic dump: %v", err)
			}
			// The dump names the detector and prints only the counters it
			// keeps: a counter the other detector keeps would read 0.
			if !strings.Contains(msg, "("+det.String()+" detector)") {
				t.Fatalf("dump does not name the %s detector: %v", det, err)
			}
			own, other := []string{" pending="}, []string{" sent=", " recv="}
			if det == DetectorFourCounter {
				own, other = other, own
			}
			for _, c := range own {
				if !strings.Contains(msg, c) {
					t.Fatalf("%s dump lacks %q: %v", det, c, err)
				}
			}
			for _, c := range other {
				if strings.Contains(msg, c) {
					t.Fatalf("%s dump prints the other detector's %q: %v", det, c, err)
				}
			}
			if u.Stats.WatchdogFires() != 1 {
				t.Fatalf("WatchdogFires = %d, want 1", u.Stats.WatchdogFires())
			}
		})
	}
}

// TestRecoveryBudgetExhausted: a handler that panics deterministically on
// every replay must fail the run once the per-epoch recovery budget is
// spent, not loop forever.
func TestRecoveryBudgetExhausted(t *testing.T) {
	u := newUniverse(config{
		Ranks: 2, ThreadsPerRank: 1,
		FaultPlan: &FaultPlan{Seed: 9}, Recovery: true, MaxRecoveries: 2,
	})
	err, _ := ringSum(u, 50, func(r *Rank, m int64) {
		if r.ID() == 1 && m == 25 {
			panic("deterministic handler bug")
		}
	})
	if err == nil {
		t.Fatal("Run returned nil with a deterministically recurring fault")
	}
	if !strings.Contains(err.Error(), "still failing after 2 recoveries") {
		t.Fatalf("error lacks budget context: %v", err)
	}
	if got := u.Stats.Recoveries(); got != 2 {
		t.Fatalf("Recoveries = %d, want 2", got)
	}
}

// TestRecoveryMultiEpoch runs several epochs with a crash in a middle one:
// committed epochs must be untouched and the total exact. A mid-epoch crash
// is checked per delivered envelope, so every message travels alone: batched
// into one or two envelopes, rank 2's 100 messages of epoch 1 could be
// handled without the 5th ever starting an envelope (6 in 30 -race runs).
func TestRecoveryMultiEpoch(t *testing.T) {
	u := newUniverse(config{
		Ranks: 3, ThreadsPerRank: 2, CoalesceSize: 1,
		FaultPlan: &FaultPlan{Seed: 21, Crashes: []Crash{{Rank: 2, Epoch: 1, AfterHandled: 5}}},
		Recovery:  true,
	})
	ck := newSliceCkpt(u.Ranks())
	u.RegisterCheckpointer(ck)
	mt := Register(u, "val", func(r *Rank, m int64) { ck.add(r.ID(), m) })
	const per, epochs = 100, 3
	err := u.Run(func(r *Rank) {
		for e := 0; e < epochs; e++ {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < per; i++ {
					mt.SendTo(r, (r.ID()+1)%r.N(), int64(i+1))
				}
			})
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := int64(epochs) * ringWant(3, per); ck.sum() != want {
		t.Fatalf("sum = %d, want %d", ck.sum(), want)
	}
	if u.Stats.RankCrashes() != 1 {
		t.Fatalf("RankCrashes = %d, want 1", u.Stats.RankCrashes())
	}
}
