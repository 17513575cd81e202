package am

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"declpat/internal/obs"
)

// TestTraceConcurrentWithRecording reads the trace continuously while every
// rank records from concurrent handler threads. The old global
// atomic-indexed ring made this a documented torn-read hazard; the per-rank
// mutex rings make it race-free by construction. Run under -race in CI.
func TestTraceConcurrentWithRecording(t *testing.T) {
	u := newUniverse(config{Ranks: 4, ThreadsPerRank: 2, CoalesceSize: 2, TraceCapacity: 512})
	mt := Register(u, "ping", func(r *Rank, m int64) {})
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := u.Trace()
			for i, ev := range evs {
				// A torn read would surface as garbage fields; every
				// observed event must be fully formed.
				if int64(i) != ev.Seq {
					t.Errorf("Seq %d at index %d", ev.Seq, i)
					return
				}
				if ev.Rank < 0 || ev.Rank >= 4 || ev.Kind > maxTraceKind {
					t.Errorf("malformed event %+v", ev)
					return
				}
			}
			_ = u.TraceDropped()
		}
	}()
	u.Run(func(r *Rank) {
		for e := 0; e < 4; e++ {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 200; i++ {
					mt.SendTo(r, (r.ID()+1+i)%r.N(), int64(i))
				}
				ep.Flush()
			})
		}
	})
	close(stop)
	reader.Wait()
}

// obsWorkload runs a deterministic (ThreadsPerRank 0) multi-epoch exchange
// and returns the universe for counter comparison.
func obsWorkload(t *testing.T, cfg config) *Universe {
	t.Helper()
	cfg.ThreadsPerRank = 0
	cfg.CoalesceSize = 4
	u := newUniverse(cfg)
	relax := Register(u, "relax", func(r *Rank, m int64) {})
	probe := Register(u, "probe", func(r *Rank, m int32) {})
	u.Run(func(r *Rank) {
		for e := 0; e < 3; e++ {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 50; i++ {
					relax.SendTo(r, (r.ID()+i)%r.N(), int64(i))
					if i%5 == 0 {
						probe.SendTo(r, (r.ID()+1)%r.N(), int32(i))
					}
				}
				ep.Flush()
			})
		}
	})
	return u
}

// TestPerRankShardsSumToAggregate: sharding changes where counts land, never
// what is counted.
func TestPerRankShardsSumToAggregate(t *testing.T) {
	sharded := obsWorkload(t, config{Ranks: 4})
	var sum Snapshot
	for _, pr := range sharded.Stats.PerRank() {
		sum.MsgsSent += pr.MsgsSent
		sum.Envelopes += pr.Envelopes
		sum.HandlersRun += pr.HandlersRun
		sum.Epochs += pr.Epochs
	}
	agg := sharded.Stats.Snapshot()
	if sum.MsgsSent != agg.MsgsSent || sum.Envelopes != agg.Envelopes ||
		sum.HandlersRun != agg.HandlersRun || sum.Epochs != agg.Epochs {
		t.Fatalf("per-rank sums %+v != aggregate %+v", sum, agg)
	}
}

// TestExportTraceRoundTrip checks the am→obs export: JSONL round-trips, the
// type-name table resolves, epoch begin/end pairs fold into spans, and the
// Chrome conversion is schema-valid.
func TestExportTraceRoundTrip(t *testing.T) {
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4, TraceCapacity: 4096})
	mt := Register(u, "relax", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		for e := 0; e < 2; e++ {
			r.Epoch(func(ep *Epoch) {
				for i := 0; i < 20; i++ {
					mt.SendTo(r, 1-r.ID(), int64(i))
				}
				ep.Flush()
			})
		}
	})
	meta, recs := u.ExportTrace("round-trip")
	if meta.Ranks != 2 || len(meta.Types) != 1 || meta.Types[0] != "relax" {
		t.Fatalf("meta = %+v", meta)
	}
	epochs, delivers, ships := 0, 0, 0
	var epochDur int64
	for _, rec := range recs {
		switch rec.Kind {
		case "epoch":
			epochs++
			epochDur += rec.Dur
		case "deliver":
			delivers++
			if rec.Type != "relax" {
				t.Fatalf("deliver without resolved type: %+v", rec)
			}
		case "ship":
			ships++
			if rec.Type != "relax" {
				t.Fatalf("ship without resolved type: %+v", rec)
			}
		case "epoch-begin", "epoch-end":
			t.Fatalf("unfolded epoch event leaked into export: %+v", rec)
		}
	}
	if epochs != 4 { // 2 ranks × 2 epochs
		t.Fatalf("epoch spans = %d, want 4", epochs)
	}
	if epochDur <= 0 {
		t.Fatal("epoch spans carry no duration")
	}
	if ships == 0 || delivers != ships {
		t.Fatalf("ships=%d delivers=%d", ships, delivers)
	}

	var jsonl bytes.Buffer
	if err := u.WriteTraceJSONL(&jsonl, "round-trip"); err != nil {
		t.Fatal(err)
	}
	meta2, recs2, err := obs.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Ranks != meta.Ranks || meta2.Label != "round-trip" || len(recs2) != len(recs) {
		t.Fatalf("round trip: meta %+v, %d records (want %d)", meta2, len(recs2), len(recs))
	}
	for i := range recs {
		if recs2[i] != recs[i] {
			t.Fatalf("record %d changed in round trip: %+v vs %+v", i, recs[i], recs2[i])
		}
	}

	var chrome bytes.Buffer
	if err := u.WriteChromeTrace(&chrome, "round-trip"); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace does not unmarshal: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty chrome trace")
	}
	for i, ev := range parsed.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("chrome event %d missing %q: %v", i, field, ev)
			}
		}
	}
}

// TestMetricsSnapshot checks the Metrics invariants on a timed reliable run:
// histogram counts tie out against the counters, gauges saw traffic, and
// everything is quiet at the end.
func TestMetricsSnapshot(t *testing.T) {
	u := newUniverse(config{
		Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 4,
		Timing:    true,
		FaultPlan: &FaultPlan{}, // full reliable protocol, no injected faults
	})
	mt := Register(u, "relax", func(r *Rank, m int64) {})
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < 100; i++ {
				mt.SendTo(r, 1-r.ID(), int64(i))
			}
			ep.Flush()
		})
	})
	m := u.Metrics()
	if m.Counters != u.Stats.Snapshot() {
		t.Fatal("Metrics.Counters disagrees with Stats.Snapshot")
	}
	if len(m.Types) != 1 {
		t.Fatalf("types = %d", len(m.Types))
	}
	ty := m.Types[0]
	if ty.BatchSize.Count != ty.Envelopes {
		t.Fatalf("batch histogram count %d != envelopes %d", ty.BatchSize.Count, ty.Envelopes)
	}
	if ty.BatchSize.Sum != ty.Sent {
		t.Fatalf("batch histogram sum %d != messages sent %d", ty.BatchSize.Sum, ty.Sent)
	}
	if ty.HandlerLatency.Count != ty.Envelopes {
		t.Fatalf("latency histogram count %d != envelopes delivered %d",
			ty.HandlerLatency.Count, ty.Envelopes)
	}
	// Every data envelope was acknowledged exactly once (no faults).
	if m.AckRTT.Count != m.Counters.Envelopes {
		t.Fatalf("ack RTT count %d != envelopes %d", m.AckRTT.Count, m.Counters.Envelopes)
	}
	var inboxPeak int64
	for i, g := range m.InboxDepth {
		inboxPeak += g.Peak
		if g.Value != 0 {
			t.Fatalf("rank %d inbox not drained: %+v", i, g)
		}
	}
	if inboxPeak == 0 {
		t.Fatal("no inbox ever held an envelope")
	}
	for i, g := range m.RelPending {
		if g.Value != 0 || g.Peak == 0 {
			t.Fatalf("rank %d rel-pending gauge %+v (want value 0, peak > 0)", i, g)
		}
	}
	for i, n := range m.CoalesceBuffered {
		if n != 0 {
			t.Fatalf("rank %d still buffers %d messages after Run", i, n)
		}
	}
}
