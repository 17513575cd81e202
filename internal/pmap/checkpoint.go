package pmap

import (
	"math"
	"sort"

	"declpat/internal/ckpt"
	"declpat/internal/distgraph"
)

// Epoch-granular checkpoint/restart support (am.Checkpointer). Each map type
// encodes one rank's shard straight from the live slots and restores by
// decoding straight back into them. Encodings are deterministic (set members
// sorted), so identical state yields identical bytes, and decoders accept
// exactly what the encoder writes; a blob whose shape differs from the live
// shard is an error that leaves the shard untouched (ckpt.Apply). Both
// methods run at quiescent points — SnapshotRank at the epoch boundary,
// RestoreRank before a restarted epoch — so no
// synchronization against handlers is needed.

// words restores a u32 count, which must equal len(dst), and that many words.
func words(d *ckpt.Dec, dst []int64, write bool) {
	d.CountIs(8, len(dst))
	for i := range dst {
		if v := d.I64(); write {
			dst[i] = v
		}
	}
}

// SnapshotRank encodes rank's shard (am.Checkpointer).
func (m *VertexWord) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	e.I64Slice(m.shards[rank])
	return e.B
}

// RestoreRank decodes a snapshot over rank's shard (am.Checkpointer).
func (m *VertexWord) RestoreRank(rank int, b []byte) error {
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) { words(d, m.shards[rank], write) })
}

// SnapshotRank encodes rank's shard: a u32 slot count, then per slot a
// presence byte and, when present, the sorted member list
// (am.Checkpointer). Nil and empty sets are distinct states — an empty set
// allocates on first touch — and both survive the round trip.
func (m *VertexSet) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	s := m.shards[rank]
	e.U32(uint32(len(s)))
	for _, set := range s {
		e.Bool(set != nil)
		if set == nil {
			continue
		}
		members := make([]int64, 0, len(set))
		for v := range set {
			members = append(members, int64(v))
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		e.I64Slice(members)
	}
	return e.B
}

// RestoreRank rebuilds rank's sets from a snapshot (am.Checkpointer).
func (m *VertexSet) RestoreRank(rank int, b []byte) error {
	s := m.shards[rank]
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) {
		d.CountIs(1, len(s))
		for i := 0; i < len(s) && d.Err == nil; i++ {
			var set map[distgraph.Vertex]struct{}
			if d.Bool() {
				n := d.Count(8)
				if write {
					set = make(map[distgraph.Vertex]struct{}, n)
				}
				for j, prev := 0, int64(-1); j < n && d.Err == nil; j++ {
					v := d.I64()
					d.Check(v > prev && v <= math.MaxUint32, "set member")
					prev = v
					if write {
						set[distgraph.Vertex(v)] = struct{}{}
					}
				}
			}
			if write {
				s[i] = set
			}
		}
	})
}

// SnapshotRank encodes rank's edge values: the out-edge values plus a
// presence byte for the in-edge mirrors (am.Checkpointer). Mirrors are
// restored too, so a replay sees the same possibly-stale mirror state the
// original attempt saw.
func (m *EdgeWord) SnapshotRank(rank int) []byte {
	var e ckpt.Enc
	e.I64Slice(m.out[rank])
	e.Bool(m.in[rank] != nil)
	if m.in[rank] != nil {
		e.I64Slice(m.in[rank])
	}
	return e.B
}

// RestoreRank decodes a snapshot over rank's edge values (am.Checkpointer).
func (m *EdgeWord) RestoreRank(rank int, b []byte) error {
	out, in := m.out[rank], m.in[rank]
	return ckpt.Apply(b, func(d *ckpt.Dec, write bool) {
		words(d, out, write)
		d.Check(d.Bool() == (in != nil), "in-edge mirror presence")
		if in != nil {
			words(d, in, write)
		}
	})
}
