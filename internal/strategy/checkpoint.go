package strategy

import (
	"slices"

	"declpat/internal/ckpt"
	"declpat/internal/distgraph"
)

// Epoch-granular checkpoint/restart support (am.Checkpointer). Delta
// registers itself at construction, so a restarted fleet resumes Δ-stepping
// from the buckets (and settled sets) every rank held at the restart epoch's
// entry, together with the property maps.
//
// Snapshots are taken at epoch boundaries, i.e. before the body's
// BeginBucket call: the boundary state always has no active bucket (cur ==
// -1) and an empty deferred-work ledger (counted), so only the contents are
// encoded: a presence byte (0 before Run has installed the rank's state —
// epochs run before Δ-stepping starts have none), the thread count, then per
// thread its non-empty buckets in index order, each a vertex list, and its
// settled set in ascending order. The settled set crosses the boundary
// between a bucket's light epoch, which fills it, and its heavy epoch, which
// reads it: a fleet restarted at the heavy epoch skips the light body, so the
// set must come back from the snapshot.

// encodeBuckets appends b's contents.
func encodeBuckets(e *ckpt.Enc, b *Buckets) {
	b.mu.Lock()
	defer b.mu.Unlock()
	idxs := make([]int, 0, len(b.items))
	for idx, vs := range b.items {
		if len(vs) > 0 {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	e.U32(uint32(len(idxs)))
	for _, idx := range idxs {
		e.I64(int64(idx))
		e.U32(uint32(len(b.items[idx])))
		for _, v := range b.items[idx] {
			e.U32(uint32(v))
		}
	}
}

// decodeBuckets restores what encodeBuckets wrote into the live b,
// deactivating any bucket the restarted epoch had begun.
func decodeBuckets(d *ckpt.Dec, b *Buckets, write bool) {
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

// SnapshotRank encodes rank's Δ-stepping state (am.Checkpointer).
func (d *Delta) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	ls := d.locals[rank]
	e.Bool(ls != nil)
	if ls == nil {
		return e.B
	}
	e.U32(uint32(len(ls)))
	for _, l := range ls {
		encodeBuckets(&e, l.b)
		settled := make([]distgraph.Vertex, 0, len(l.settled))
		for v := range l.settled {
			settled = append(settled, v)
		}
		slices.Sort(settled)
		e.U32(uint32(len(settled)))
		for _, v := range settled {
			e.U32(uint32(v))
		}
	}
	return e.B
}

// RestoreRank rolls rank's Δ-stepping state back (am.Checkpointer).
func (d *Delta) RestoreRank(rank int, b []byte) error {
	ls := d.locals[rank]
	return ckpt.Apply(b, func(dec *ckpt.Dec, write bool) {
		dec.Check(dec.Bool() == (ls != nil), "bucket structure presence")
		if ls == nil {
			return
		}
		// A thread is at least its bucket count and its settled count.
		dec.CountIs(4+4, len(ls))
		for _, l := range ls {
			if dec.Err != nil {
				return
			}
			decodeBuckets(dec, l.b, write)
			if write {
				clear(l.settled)
			}
			n := dec.Count(4)
			for i, prev := 0, distgraph.Vertex(0); i < n && dec.Err == nil; i++ {
				v := distgraph.Vertex(dec.U32())
				dec.Check(i == 0 || v > prev, "settled order")
				prev = v
				if write {
					l.settled[v] = true
				}
			}
		}
	})
}
