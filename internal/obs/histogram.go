package obs

import (
	"sort"
	"sync/atomic"
)

// histShard is one shard's bucket array plus count/sum/max, heap-separated
// from its siblings (each shard owns its own slice) so shards never share
// lines.
type histShard struct {
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	_       [cacheLine - 24]byte
}

// Histogram is a fixed-bucket sharded histogram. Bucket i counts observations
// v with v <= bounds[i] (and > bounds[i-1]); one implicit overflow bucket
// catches everything above the last bound. Observe is a binary search over
// the (small, fixed) bound set plus two or three atomic adds on the shard's
// own memory.
type Histogram struct {
	bounds []int64
	shards []*histShard
}

// NewHistogram allocates a histogram with the given shard count and ascending
// upper bucket bounds. It panics on an empty or unsorted bound set — bounds
// are compiled in, so this is a programmer error.
func NewHistogram(shards int, bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	if shards < 1 {
		shards = 1
	}
	h := &Histogram{bounds: bounds, shards: make([]*histShard, shards)}
	for i := range h.shards {
		h.shards[i] = &histShard{buckets: make([]atomic.Int64, len(bounds)+1)}
	}
	return h
}

// ExpBounds returns n strictly ascending bounds starting at lo and doubling:
// lo, 2lo, 4lo, … — the usual shape for latencies and sizes.
func ExpBounds(lo int64, n int) []int64 {
	if lo < 1 {
		lo = 1
	}
	b := make([]int64, n)
	for i := range b {
		b[i] = lo << i
	}
	return b
}

// bucketIndex returns the bucket for v: the first bound >= v, or the overflow
// bucket.
func (h *Histogram) bucketIndex(v int64) int {
	return sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
}

// Observe records v on the given shard.
func (h *Histogram) Observe(shard int, v int64) {
	s := h.shards[shard]
	s.buckets[h.bucketIndex(v)].Add(1)
	s.count.Add(1)
	s.sum.Add(v)
	for {
		m := s.max.Load()
		if v <= m || s.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Bounds returns the configured bucket bounds.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Snapshot aggregates all shards into a plain-value view.
func (h *Histogram) Snapshot() HistSnapshot {
	out := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
	}
	for _, s := range h.shards {
		for i := range s.buckets {
			out.Counts[i] += s.buckets[i].Load()
		}
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		if m := s.max.Load(); m > out.Max {
			out.Max = m
		}
	}
	return out
}

// ShardSnapshot returns a plain-value view of a single shard (one rank's
// observations), with the same shape as Snapshot.
func (h *Histogram) ShardSnapshot(shard int) HistSnapshot {
	out := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
	}
	s := h.shards[shard]
	for i := range s.buckets {
		out.Counts[i] = s.buckets[i].Load()
	}
	out.Count = s.count.Load()
	out.Sum = s.sum.Load()
	out.Max = s.max.Load()
	return out
}

// HistSnapshot is an aggregated histogram view.
type HistSnapshot struct {
	Bounds []int64 // upper bounds; Counts has one extra overflow bucket
	Counts []int64
	Count  int64
	Sum    int64
	Max    int64
}

// Mean returns the mean observation, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the containing bucket; the overflow bucket reports Max. Returns 0
// when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			return s.Max
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - float64(cum)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return s.Max
}
