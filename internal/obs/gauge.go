package obs

import "sync/atomic"

// gaugeSlot is one shard of a Gauge: current value plus high-water mark, on
// its own cache line.
type gaugeSlot struct {
	cur atomic.Int64
	max atomic.Int64
	_   [cacheLine - 16]byte
}

// Gauge is a sharded up/down counter that also tracks each shard's high-water
// mark (the peak matters for queue depths and outstanding-envelope tables,
// where a between-epochs sample always reads zero). Add is two atomic ops on
// the shard's own cache line; reads aggregate.
type Gauge struct {
	shards []gaugeSlot
}

// NewGauge allocates a gauge with the given shard count.
func NewGauge(shards int) *Gauge {
	if shards < 1 {
		shards = 1
	}
	return &Gauge{shards: make([]gaugeSlot, shards)}
}

// Add adds d (which may be negative) to the shard's current value, raises its
// high-water mark if the new value exceeds it, and returns the new value.
func (g *Gauge) Add(shard int, d int64) int64 {
	s := &g.shards[shard]
	v := s.cur.Add(d)
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			return v
		}
	}
}

// Value returns the sum of all shards' current values.
func (g *Gauge) Value() int64 {
	var s int64
	for i := range g.shards {
		s += g.shards[i].cur.Load()
	}
	return s
}

// ShardValue returns one shard's current value.
func (g *Gauge) ShardValue(shard int) int64 { return g.shards[shard].cur.Load() }

// ShardMax returns one shard's high-water mark.
func (g *Gauge) ShardMax(shard int) int64 { return g.shards[shard].max.Load() }

// Max returns the largest per-shard high-water mark. (Shards peak at
// different times, so this is the max of per-shard peaks, not the peak of
// the sum.)
func (g *Gauge) Max() int64 {
	var m int64
	for i := range g.shards {
		if v := g.shards[i].max.Load(); v > m {
			m = v
		}
	}
	return m
}

// Shards returns the shard count.
func (g *Gauge) Shards() int { return len(g.shards) }
