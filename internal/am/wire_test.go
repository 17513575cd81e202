package am

import (
	"sync/atomic"
	"testing"
)

func TestWireTransportDeliversIntact(t *testing.T) {
	type payload struct {
		ID   uint64
		Vals [4]int64
		Tag  byte
	}
	u := newUniverse(config{Ranks: 2, ThreadsPerRank: 1, CoalesceSize: 8, FaultPlan: &FaultPlan{}})
	var sum atomic.Int64
	var handled atomic.Int64
	mt := Register(u, "wire", func(r *Rank, m payload) {
		handled.Add(1)
		sum.Add(int64(m.ID) + m.Vals[0] + m.Vals[3])
		if m.Tag != 'x' {
			t.Errorf("tag corrupted: %q", m.Tag)
		}
	})
	const per = 100
	u.Run(func(r *Rank) {
		r.Epoch(func(ep *Epoch) {
			for i := 0; i < per; i++ {
				mt.SendTo(r, 1-r.ID(), payload{
					ID: uint64(i), Vals: [4]int64{int64(i), 0, 0, 7}, Tag: 'x',
				})
			}
		})
	})
	if handled.Load() != 2*per {
		t.Fatalf("handled %d", handled.Load())
	}
	want := int64(0)
	for i := 0; i < per; i++ {
		want += 2 * (int64(i) + int64(i) + 7)
	}
	if sum.Load() != want {
		t.Fatalf("sum=%d want %d (payload corrupted in transit)", sum.Load(), want)
	}
	if u.Stats.WireBytes() == 0 {
		t.Fatal("no wire bytes accounted")
	}
}
