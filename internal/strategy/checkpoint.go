package strategy

import (
	"sort"

	"declpat/internal/ckpt"
	"declpat/internal/distgraph"
)

// Epoch-granular checkpoint/restart support (am.Checkpointer). The Δ-stepping
// strategies auto-register their bucket structures at construction, so a
// fault inside a per-bucket epoch rolls the buckets back together with the
// property maps and the epoch replays from the same frontier.
//
// Snapshots are taken at epoch boundaries, i.e. before the body's
// BeginBucket call: the boundary state always has no active bucket (cur ==
// -1) and an empty deferred-work ledger (counted), so only the bucket
// contents themselves are encoded: a presence byte (0 before the strategy's
// Run has installed the structure — epochs run before Δ-stepping starts have
// no bucket state), then the non-empty buckets in index order, each a vertex
// list. DeltaLightHeavy's per-bucket settled set is deliberately not
// checkpointed: a replayed light phase repopulates it, and any extra
// vertices retained from an aborted attempt only cause redundant heavy
// relaxations, which are monotone-min and therefore harmless.

// encodeBuckets appends b's presence byte and, if installed, its contents.
func encodeBuckets(e *ckpt.Enc, b *Buckets) {
	e.Bool(b != nil)
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	idxs := make([]int, 0, len(b.items))
	for idx, vs := range b.items {
		if len(vs) > 0 {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	e.U32(uint32(len(idxs)))
	for _, idx := range idxs {
		e.I64(int64(idx))
		e.U32(uint32(len(b.items[idx])))
		for _, v := range b.items[idx] {
			e.U32(uint32(v))
		}
	}
}

// decodeBuckets restores what encodeBuckets wrote into the live b, whose
// presence must match, deactivating any bucket the aborted attempt had
// begun.
func decodeBuckets(d *ckpt.Dec, b *Buckets, write bool) {
	d.Check(d.Bool() == (b != nil), "bucket structure presence")
	if b == nil || d.Err != nil {
		return
	}
	// A bucket is at least its index, its count and one vertex.
	n := d.Count(8 + 4 + 4)
	var items map[int][]distgraph.Vertex
	if write {
		items = make(map[int][]distgraph.Vertex, n)
	}
	for i, prev := 0, int64(0); i < n && d.Err == nil; i++ {
		idx := d.I64()
		d.Check(i == 0 || idx > prev, "bucket order")
		prev = idx
		cnt := d.Count(4)
		d.Check(cnt > 0, "empty bucket")
		var vs []distgraph.Vertex
		if write {
			vs = make([]distgraph.Vertex, cnt)
			items[int(idx)] = vs
		}
		for j := 0; j < cnt && d.Err == nil; j++ {
			if v := distgraph.Vertex(d.U32()); write {
				vs[j] = v
			}
		}
	}
	if write {
		b.mu.Lock()
		b.items, b.cur = items, -1
		clear(b.counted)
		b.mu.Unlock()
	}
}

// rankBuckets holds one bucket structure per rank (nil until Run installs
// it). Delta and DeltaLightHeavy embed it, which makes them checkpointers.
type rankBuckets []*Buckets

// SnapshotRank encodes rank's bucket structure (am.Checkpointer).
func (rb rankBuckets) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	encodeBuckets(&e, rb[rank])
	return e.B
}

// RestoreRank rolls rank's bucket structure back (am.Checkpointer).
func (rb rankBuckets) RestoreRank(rank int, b []byte) error {
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) { decodeBuckets(d, rb[rank], write) })
}

// SnapshotRank encodes rank's per-thread bucket structures: a presence byte,
// the thread count, then one bucket structure per thread (am.Checkpointer).
func (d *DeltaDistributed) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	locals := d.buckets[rank]
	e.Bool(locals != nil)
	if locals != nil {
		e.U32(uint32(len(locals)))
		for _, lb := range locals {
			encodeBuckets(&e, lb)
		}
	}
	return e.B
}

// RestoreRank rolls rank's per-thread bucket structures back
// (am.Checkpointer).
func (d *DeltaDistributed) RestoreRank(rank int, b []byte) error {
	locals := d.buckets[rank]
	return ckpt.Apply(b, func(dec *ckpt.Dec, write bool) {
		dec.Check(dec.Bool() == (locals != nil), "bucket structure presence")
		if locals == nil {
			return
		}
		dec.CountIs(1, len(locals))
		for _, lb := range locals {
			decodeBuckets(dec, lb, write)
		}
	})
}
