package am

import (
	"testing"
)

func TestTraceRecordsEpochsAndMessages(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4, TraceCapacity: 4096})
	mt := Register(u, "m", func(r *Rank, m int64) {})
	const per = 20
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, 1-r.ID(), int64(i))
			}
			ep.Flush()
		})
		r.Epoch(func(ep *Epoch) {})
	})
	events := u.Trace()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	counts := map[TraceKind]int{}
	perRankEpochs := map[int32]int{}
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind == TraceEpochBegin {
			perRankEpochs[ev.Rank]++
		}
	}
	// 2 ranks × 2 epochs.
	if counts[TraceEpochBegin] != 4 || counts[TraceEpochEnd] != 4 {
		t.Fatalf("epoch events: begin=%d end=%d", counts[TraceEpochBegin], counts[TraceEpochEnd])
	}
	for rank, n := range perRankEpochs {
		if n != 2 {
			t.Fatalf("rank %d began %d epochs", rank, n)
		}
	}
	if counts[TraceFlush] != 2 {
		t.Fatalf("flush events: %d", counts[TraceFlush])
	}
	// Every shipped envelope is delivered; ship count equals the
	// Envelopes stat.
	if int64(counts[TraceShip]) != u.Stats.Envelopes() {
		t.Fatalf("ship events %d != envelopes %d", counts[TraceShip], u.Stats.Envelopes())
	}
	if counts[TraceDeliver] != counts[TraceShip] {
		t.Fatalf("deliver %d != ship %d", counts[TraceDeliver], counts[TraceShip])
	}
	// Total messages across ship events equals MsgsSent.
	var shipped int64
	for _, ev := range events {
		if ev.Kind == TraceShip {
			shipped += ev.Arg2
		}
	}
	if shipped != u.Stats.MsgsSent() {
		t.Fatalf("shipped %d messages in trace, stat says %d", shipped, u.Stats.MsgsSent())
	}
	if u.TraceDropped() != 0 {
		t.Fatalf("dropped %d with ample capacity", u.TraceDropped())
	}
	// Events are in sequence order.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("out of order at %d: %v then %v", i, events[i-1], events[i])
		}
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	u := newUniverse(config{Ranks: 1, ThreadsPerRank: 0, CoalesceSize: 1, TraceCapacity: 8})
	mt := Register(u, "m", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < 100; i++ {
				mt.SendTo(r, 0, int64(i))
			}
		})
	})
	events := u.Trace()
	if len(events) > 8 {
		t.Fatalf("ring returned %d events, capacity 8", len(events))
	}
	if u.TraceDropped() == 0 {
		t.Fatal("expected drops")
	}
}

func TestTraceDisabled(t *testing.T) {
	u := newUniverse(config{Ranks: 1})
	u.Run(func(r *Rank) {})
	if u.Trace() != nil || u.TraceDropped() != 0 {
		t.Fatal("tracing should be disabled by default")
	}
}

func TestFourCounterTraceWaves(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, Detector: DetectorFourCounter, TraceCapacity: 1024})
	mt := Register(u, "m", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			mt.SendTo(r, 1-r.ID(), 1)
		})
	})
	waves, success := 0, 0
	for _, ev := range u.Trace() {
		if ev.Kind == TraceTDWave {
			waves++
			if ev.Arg == 1 {
				success++
			}
		}
	}
	if waves < 2 || success != 1 {
		t.Fatalf("waves=%d success=%d", waves, success)
	}
}
