package am

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// ringRun runs a one-epoch ring workload: each rank sends per values to its
// successor, and a non-nil hook runs inside each handler.
func ringRun(u *Universe, per int, hook func(r *Rank, m int64)) error {
	mt := Register(u, "val", func(r *Rank, m int64) {
		if hook != nil {
			hook(r, m)
		}
	})
	return u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, (r.ID()+1)%r.N(), int64(i+1))
			}
		})
	})
}

// wantRankFault fails the test unless err wraps a *RankFault of kind, the
// fault that aborted the run's only epoch; it returns the fault.
func wantRankFault(t *testing.T, u *Universe, err error, kind FaultKind) *RankFault {
	t.Helper()
	var f *RankFault
	if !errors.As(err, &f) {
		t.Fatalf("Run returned %v, want a *RankFault", err)
	}
	if f.Kind != kind {
		t.Fatalf("Run's fault is %s, want %s: %v", f.Kind, kind, err)
	}
	if n := u.Stats.EpochAborts(); n != 1 {
		t.Fatalf("EpochAborts = %d, want 1", n)
	}
	return f
}

// TestHandlerPanicWithoutRecoveryFails: with containment on (fault plan set),
// a handler panic must surface as Run's *RankFault on both detectors — not a
// process abort, and not a hang.
func TestHandlerPanicWithoutRecoveryFails(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{
				Ranks: 3, ThreadsPerRank: 2, Detector: det,
				FaultPlan: &FaultPlan{Seed: 7},
			})
			var armed atomic.Bool
			armed.Store(true)
			err := ringRun(u, 50, func(r *Rank, m int64) {
				if r.ID() == 1 && armed.CompareAndSwap(true, false) {
					panic("injected handler bug")
				}
			})
			if f := wantRankFault(t, u, err, FaultHandlerPanic); f.Rank != 1 || !strings.Contains(f.Detail, "injected handler bug") {
				t.Fatalf("fault lacks the panicking rank or value: %v", f)
			}
			if u.Stats.HandlerPanics() != 1 {
				t.Fatalf("HandlerPanics = %d, want 1", u.Stats.HandlerPanics())
			}
		})
	}
}

// TestLinkDeadWithoutRecoveryFails: a dead link must exhaust the retransmit
// ceiling into Run's *RankFault — the panic this path used to be — on both
// detectors.
func TestLinkDeadWithoutRecoveryFails(t *testing.T) {
	for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			u := newUniverse(config{
				Ranks: 2, ThreadsPerRank: 1, Detector: det,
				FaultPlan: &FaultPlan{
					Seed: 5, retransmitBase: 1, maxAttempts: 3,
					deadLinks: []deadLink{{Src: 0, Dest: 1, Epoch: 0}},
				},
			})
			err := ringRun(u, 20, nil)
			// 0->1 carries rank 0's data and its acks of rank 1's data, so
			// either direction's sender can be the one to hit the ceiling.
			if f := wantRankFault(t, u, err, FaultLinkDead); !strings.Contains(f.Detail, "dead after") {
				t.Fatalf("fault lacks link-death context: %v", f)
			}
			if u.Stats.LinkDeaths() == 0 {
				t.Fatal("LinkDeaths = 0")
			}
		})
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
			wantRankFault(t, u, err, FaultWatchdog)
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
