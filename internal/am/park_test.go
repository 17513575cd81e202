package am

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParkPolicy pins which universes park their idle rank mains and which
// keep the clocked idle loop — park is atomic ∧ no watchdog ∧ (trusted ∨
// clocked transport) — beside the co-resident predicate that shares the
// trusted-mode conjunction, and which of the parking ones run a retransmit
// clock (the reliable ones).
func TestParkPolicy(t *testing.T) {
	unix := func() Transport { return SockTransport(SockOptions{Network: "unix"}) }
	cases := []struct {
		name                    string
		cfg                     config
		park, coresident, clock bool
	}{
		{"chan", config{Ranks: 2, ThreadsPerRank: 1}, true, true, false},
		{"lineage", config{Ranks: 2, TraceCapacity: 64}, true, false, false},
		{"traced", config{Ranks: 2, TraceCapacity: 64, Lineage: LineageOff}, true, true, false},
		{"unix", config{Ranks: 2, Transport: unix()}, true, false, true},
		{"tcp", config{Ranks: 2, Transport: SockTransport(SockOptions{Network: "tcp"})}, true, false, true},
		{"unix+recovery", config{Ranks: 2, Recovery: true, Transport: unix()}, true, false, true},
		{"unix+fault-plan", config{Ranks: 2, FaultPlan: &FaultPlan{Drop: 0.1}, Transport: unix()}, true, false, true},
		{"four-counter", config{Ranks: 2, Detector: DetectorFourCounter}, false, true, false},
		{"unix+four-counter", config{Ranks: 2, Detector: DetectorFourCounter, Transport: unix()}, false, false, false},
		{"watchdog", config{Ranks: 2, Watchdog: time.Second}, false, true, false},
		{"unix+watchdog", config{Ranks: 2, Watchdog: time.Second, Transport: unix()}, false, false, false},
		// The in-process reliable layer's retransmit clock ticks per poll.
		{"chan+fault-plan", config{Ranks: 2, FaultPlan: &FaultPlan{}}, false, false, false},
		{"chan+recovery", config{Ranks: 2, Recovery: true}, false, false, false},
	}
	for _, c := range cases {
		u := newUniverse(c.cfg)
		if u.park != c.park || u.coresident != c.coresident || (u.clock != nil) != c.clock {
			t.Errorf("%s: park=%v coresident=%v clock=%v, want %v %v %v",
				c.name, u.park, u.coresident, u.clock != nil, c.park, c.coresident, c.clock)
		}
	}
}

// parkHop is one link of TestParkWakeMatrix's message chains: TTL more hops
// follow, and the last handler lingers when Linger is set.
type parkHop struct {
	TTL    int32
	Linger bool
}

// linger holds the calling thread long enough for every idle rank main to
// park: a few yields usually, a real sleep now and then.
func linger(epoch int) {
	if epoch%64 < 4 {
		time.Sleep(50 * time.Microsecond)
		return
	}
	for i := 0; i < 8; i++ {
		runtime.Gosched()
	}
}

// TestParkWakeMatrix runs thousands of short epochs on every shape of parking
// universe and checks each one ends, and ends only after every message of it
// was handled. The epochs are built so that each wake or check site is, in
// some of them, the only one that can end the epoch:
//
//   - an empty epoch whose last body participant lingers: only the body-idle
//     check (the main's own before it parks, with one body; the
//     participant's, with several) sees the universe quiescent;
//   - a hop chain whose last handler lingers, often on a handler thread while
//     every main is parked: only the pending→0 check after the batch's
//     handlers (Rank.handled, on the plain and the lineage deliver path)
//     sees it;
//   - and in every epoch whoever finishes must wake the parked mains.
//
// The unix column runs fewer epochs over Unix-domain sockets, where two more
// sites are the only ones that can end some epochs: the ack that empties a
// sender's outstanding table, which arrives after the last handler of an
// unlingering chain and is often taken by a handler thread (the settle in
// relAdd), and, under a plan that drops envelopes, the retransmit clock's
// tick that wakes the parked mains to retransmit a lost one.
//
// Removing any one of those sites makes this test hang, which the timeout
// turns into a failure naming the configuration and epoch.
func TestParkWakeMatrix(t *testing.T) {
	epochs := 2000 / raceTimingScale
	if testing.Short() {
		epochs /= 4
	}
	timeout := time.Duration(raceTimingScale) * 30 * time.Second
	for _, ranks := range []int{1, 2, 4} {
		for _, threads := range []int{0, 1, 2} {
			for _, bodies := range []int{1, 3} {
				for _, traced := range []bool{false, true} {
					cfg := config{Ranks: ranks, ThreadsPerRank: threads, Lineage: LineageOff}
					if traced {
						cfg = config{Ranks: ranks, ThreadsPerRank: threads, TraceCapacity: ranks * 256}
					}
					name := fmt.Sprintf("%dx%d/bodies=%d/traced=%v", ranks, threads, bodies, traced)
					t.Run(name, func(t *testing.T) {
						runParkMatrix(t, cfg, bodies, epochs, timeout)
					})
				}
			}
		}
	}
	for _, threads := range []int{0, 1, 2} {
		for _, bodies := range []int{1, 3} {
			for _, plan := range []string{"zero", "drop"} {
				name := fmt.Sprintf("unix/2x%d/bodies=%d/plan=%s", threads, bodies, plan)
				t.Run(name, func(t *testing.T) {
					requireLoopback(t)
					cfg := config{Ranks: 2, ThreadsPerRank: threads, Transport: SockTransport(fastSockOptions("unix"))}
					// Socket epochs wait on real time, which the race detector
					// does not slow down, so their count does not shrink with it.
					n := 2000 / 8
					if testing.Short() {
						n /= 4
					}
					if plan == "drop" {
						// Every drop waits out a retransmit timeout.
						cfg.FaultPlan = &FaultPlan{Seed: uint64(7 + threads + bodies), Drop: 0.05}
						n /= 3
					}
					runParkMatrix(t, cfg, bodies, n, timeout)
				})
			}
		}
	}
}

func runParkMatrix(t *testing.T, cfg config, bodies, epochs int, timeout time.Duration) {
	u := newUniverse(cfg)
	if !u.park {
		t.Fatalf("configuration does not park")
	}
	var handled atomic.Int64
	var hop *MsgType[parkHop]
	var epoch atomic.Int64 // the epoch rank 0 is in, for the timeout report
	hop = Register(u, "hop", func(r *Rank, m parkHop) {
		handled.Add(1)
		if m.TTL > 0 {
			hop.SendTo(r, (r.ID()+1)%r.N(), parkHop{TTL: m.TTL - 1, Linger: m.Linger})
			return
		}
		if m.Linger {
			linger(int(epoch.Load()))
		}
	})
	if u.fp != nil {
		hop.WithWire()
	}
	n := cfg.Ranks
	chain := int32(2 * n) // a chain of 2n+1 handlers crosses every rank twice
	// expect returns how many handlers epoch e runs.
	expect := func(e int) int64 {
		switch e % 4 {
		case 1, 3:
			return int64(chain + 1)
		case 2:
			return int64(n * bodies * int(n+1))
		}
		return 0
	}
	var reported atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- u.Run(func(r *Rank) {
			var want int64
			last := r.ID() == n-1
			for e := 0; e < epochs; e++ {
				if r.ID() == 0 {
					epoch.Store(int64(e))
				}
				r.EpochThreaded(bodies, func(tid int, ep *Epoch) {
					first := r.ID() == 0 && tid == 0
					switch e % 4 {
					case 0: // empty: the last participant to go idle ends it
						if last && tid == bodies-1 {
							linger(e)
						}
					case 1: // the chain's last handler ends it
						if first {
							hop.SendTo(r, 1%n, parkHop{TTL: chain, Linger: true})
						}
					case 2: // every participant's chain, racing each other (on sockets, an ack ends it)
						hop.SendTo(r, (r.ID()+tid)%n, parkHop{TTL: int32(n)})
					case 3: // a lingering chain races a lingering participant
						if first {
							hop.SendTo(r, 1%n, parkHop{TTL: chain, Linger: true})
						}
						if last && tid == bodies-1 {
							linger(e)
						}
					}
				})
				// Every rank computes the same running total; the epoch
				// guarantee says all of it was handled by now, and nothing
				// of the next epoch can be until this rank enters it.
				want += expect(e)
				if got := handled.Load(); got != want && reported.CompareAndSwap(false, true) {
					t.Errorf("rank %d after epoch %d: handled %d, want %d", r.ID(), e, got, want)
				}
			}
		})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(timeout):
		t.Fatalf("hung in epoch %d of %d (handled %d messages)", epoch.Load(), epochs, handled.Load())
	}
}

// TestIdleRankDoesNotSpin: while rank 0's handler sleeps 20 ms, rank 1 has
// nothing to do. A parking rank main makes a pass or two and blocks until the
// epoch ends; a polling one would yield thousands of times. Over a socket,
// rank 1 also wakes on the retransmit clock's ticks until its envelope is
// acknowledged, so its passes are bounded by the ticks in 20 ms.
func TestIdleRankDoesNotSpin(t *testing.T) {
	const nap = 20 * time.Millisecond
	for _, network := range []string{"chan", "unix"} {
		for _, threads := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/threads=%d", network, threads), func(t *testing.T) {
				cfg := config{Ranks: 2, ThreadsPerRank: threads}
				bound := int64(4)
				if network == "unix" {
					requireLoopback(t)
					opt := SockOptions{Network: "unix"}
					cfg.Transport = SockTransport(opt)
					bound += int64(nap / opt.withDefaults().TickInterval)
				}
				u := newUniverse(cfg)
				slow := Register(u, "slow", func(r *Rank, _ int64) { time.Sleep(nap) })
				if network == "unix" {
					slow.WithWire()
				}
				var passes int64
				if err := u.Run(func(r *Rank) {
					r.Epoch(func(ep *Epoch) {
						if r.ID() == 1 {
							slow.SendTo(r, 0, 0)
						}
					})
					if r.ID() == 1 {
						passes = r.quietPasses
					}
				}); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d quiet passes", passes)
				if passes > bound {
					t.Errorf("idle rank 1 made %d quiet progress passes during a %v handler, want <= %d", passes, nap, bound)
				}
			})
		}
	}
}
