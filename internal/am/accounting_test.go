package am

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// acctMsg is one link of TestEnvelopeAccounting's ping-pong chains: a ping's
// handler answers with a pong of the same TTL, a pong's handler sends the next
// ping with TTL-1 until TTL reaches 0.
type acctMsg struct {
	TTL int32
}

// TestEnvelopeAccounting checks that counting per envelope and per handled
// batch leaves every counter exact at every epoch end. Messages are counted
// in MsgsSent and the type's Sent when their envelope ships, and in
// HandlersRun, Handled and the detector's counters once their batch's
// handlers have all returned; an atomic universe's pending holds one token
// per non-empty coalescing buffer, which shipping turns into one count per
// message. Many short epochs whose handlers send run over every detector,
// transport (chan, chan with a seeded drop plan, unix), handler-thread
// count, coalescing factor and lineage setting. After each epoch:
//
//   - every message of the epoch was handled in it, and no other;
//   - MsgsSent == HandlersRun, and per type Sent == Handled;
//   - an atomic universe's pending is 0 and its ranks' sentC/recvC read 0
//     (it keeps only pending);
//   - a four-counter universe's summed sentC equals its summed recvC, and
//     its pending reads 0 (it keeps only sentC/recvC).
//
// While a handler runs on an atomic universe, pending must be above 0: the
// handler's own batch is counted until it completes.
func TestEnvelopeAccounting(t *testing.T) {
	chanEpochs, unixEpochs := 120/raceTimingScale, 40
	if testing.Short() {
		chanEpochs, unixEpochs = chanEpochs/4, unixEpochs/4
	}
	for _, transport := range []string{"chan", "chan+drop", "unix"} {
		for _, det := range []DetectorKind{DetectorAtomic, DetectorFourCounter} {
			for _, threads := range []int{0, 1, 2} {
				for _, coalesce := range []int{1, 4, 64} {
					for _, lineage := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/threads=%d/coalesce=%d/lineage=%v", transport, det, threads, coalesce, lineage)
						t.Run(name, func(t *testing.T) {
							cfg := config{Ranks: 2, ThreadsPerRank: threads, CoalesceSize: coalesce, Detector: det, Lineage: LineageOff}
							if lineage {
								cfg.Lineage, cfg.TraceCapacity = LineageAuto, 1024
							}
							epochs := chanEpochs
							switch transport {
							case "chan+drop":
								cfg.FaultPlan = &FaultPlan{Seed: uint64(11 + threads + coalesce), Drop: 0.05}
							case "unix":
								requireLoopback(t)
								cfg.Transport = SockTransport(fastSockOptions("unix"))
								epochs = unixEpochs
							}
							runEnvelopeAccounting(t, cfg, epochs)
						})
					}
				}
			}
		}
	}
}

func runEnvelopeAccounting(t *testing.T, cfg config, epochs int) {
	u := newUniverse(cfg)
	if u.lineage != (cfg.TraceCapacity > 0) {
		t.Fatalf("lineage = %v, want %v", u.lineage, cfg.TraceCapacity > 0)
	}
	var handled, starved atomic.Int64
	var ping, pong *MsgType[acctMsg]
	onHandle := func(r *Rank) {
		handled.Add(1)
		if !r.u.fourCounter && r.u.pending.Load() < 1 {
			starved.Add(1)
		}
	}
	ping = Register(u, "ping", func(r *Rank, m acctMsg) {
		onHandle(r)
		pong.SendTo(r, (r.ID()+1)%r.N(), m)
	})
	pong = Register(u, "pong", func(r *Rank, m acctMsg) {
		onHandle(r)
		if m.TTL > 0 {
			ping.SendTo(r, (r.ID()+1)%r.N(), acctMsg{TTL: m.TTL - 1})
		}
	})
	// Epoch e: every rank's body sends k pings of TTL ttl, each a chain of
	// ttl+1 pings and ttl+1 pongs. k runs past the coalescing factor 4, so
	// some buffers ship full from SendTo and others partial from a flush.
	shape := func(e int) (k, ttl int) { return 1 + e%7, e % 3 }
	var epoch atomic.Int64
	var reported atomic.Bool
	errc := make(chan error, 1)
	go func() {
		errc <- u.Run(func(r *Rank) {
			var want int64 // messages of each type sent and handled so far
			for e := 0; e < epochs; e++ {
				k, ttl := shape(e)
				r.Epoch(func(ep *Epoch) {
					for i := 0; i < k; i++ {
						ping.SendTo(r, (r.ID()+i)%r.N(), acctMsg{TTL: int32(ttl)})
					}
				})
				want += int64(r.N() * k * (ttl + 1))
				if r.ID() != 0 {
					continue
				}
				// The closing barrier is behind every rank, and no rank
				// sends again before rank 0 enters the next epoch.
				epoch.Store(int64(e + 1))
				err := checkAccounting(u, 2*want, handled.Load())
				if err != nil && reported.CompareAndSwap(false, true) {
					t.Errorf("after epoch %d: %v", e, err)
				}
			}
		})
	}()
	timeout := time.Duration(raceTimingScale) * 60 * time.Second
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(timeout):
		t.Fatalf("hung after epoch %d of %d (handled %d messages)", epoch.Load(), epochs, handled.Load())
	}
	if n := starved.Load(); n > 0 {
		t.Errorf("%d handlers ran while pending read 0 or less", n)
	}
}

// checkAccounting compares u's counters, read between epochs, with the
// number of messages the test sent and the number its handlers saw.
func checkAccounting(u *Universe, want, handled int64) error {
	sent, run := u.Stats.MsgsSent(), u.Stats.HandlersRun()
	if handled != want || sent != want || run != want {
		return fmt.Errorf("handled %d, MsgsSent %d, HandlersRun %d; want %d each", handled, sent, run, want)
	}
	for _, ts := range u.TypeStats() {
		if ts.Sent != ts.Handled || ts.Sent != want/2 {
			return fmt.Errorf("type %s: Sent %d, Handled %d; want %d each", ts.Name, ts.Sent, ts.Handled, want/2)
		}
	}
	var sentC, recvC int64
	for _, r := range u.ranks {
		sentC += r.sentC.Load()
		recvC += r.recvC.Load()
	}
	if p := u.pending.Load(); p != 0 {
		return fmt.Errorf("%s detector: pending = %d, want 0", u.cfg.Detector, p)
	}
	if u.fourCounter {
		if sentC != recvC || sentC != want {
			return fmt.Errorf("four-counter: sentC %d, recvC %d; want %d each", sentC, recvC, want)
		}
	} else if sentC != 0 || recvC != 0 {
		return fmt.Errorf("atomic: sentC %d, recvC %d; want 0 (unkept)", sentC, recvC)
	}
	return nil
}
