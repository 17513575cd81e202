package strategy

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"declpat/internal/am"
	"declpat/internal/ckpt"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// The checkpoint contract (am.Checkpointer) over every checkpointer kind in
// the repo — the property maps, the Δ bucket structures and the pattern
// engine — in one place: this package is the one that reaches all three, and
// the bucket internals.

const ckptN = 8

// ckptRig holds one live checkpointer of every kind over a one-rank universe.
type ckptRig struct {
	u           *am.Universe
	g           *distgraph.Graph
	vw, dist    *pmap.VertexWord
	vs          *pmap.VertexSet
	ew, ewIn    *pmap.EdgeWord // without and with the in-edge mirror
	eng         *pattern.Engine
	rerun, work *pattern.BoundAction
	// One Δ-stepping checkpointer in three shapes: per-rank buckets, the
	// light/heavy split and two threads' buckets.
	delta, lh, dd *Delta
}

func relaxPattern() *pattern.Pattern {
	p := pattern.New("relax")
	dist, weight := p.VertexProp("dist"), p.EdgeProp("weight")
	d := pattern.Add(dist.At(pattern.V()), weight.At(pattern.E()))
	p.Action("relax", pattern.OutEdges()).If(pattern.Lt(d, dist.At(pattern.Trg()))).Set(dist.At(pattern.Trg()), d)
	return p
}

func newCkptRig() *ckptRig {
	u := am.New(1, am.WithThreads(0))
	d := distgraph.NewBlockDist(ckptN, 1)
	edges := []distgraph.Edge{{Src: 0, Dst: 1, W: 2}, {Src: 1, Dst: 2, W: 3}, {Src: 0, Dst: 3, W: 9}, {Src: 3, Dst: 4, W: 1}}
	g := distgraph.Build(d, edges, distgraph.Options{})
	lm := pmap.NewLockMap(d, 1)
	rig := &ckptRig{
		u: u, g: g, eng: pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions()),
		vw: pmap.NewVertexWord(d, 7), dist: pmap.NewVertexWord(d, pattern.Inf), vs: pmap.NewVertexSet(d, lm),
		ew: pmap.NewEdgeWord(g, 1), ewIn: pmap.NewEdgeWord(distgraph.Build(d, edges, distgraph.Options{Bidirectional: true}), 1),
	}
	bind := func() *pattern.BoundAction {
		b, err := rig.eng.Bind(relaxPattern(), pattern.Bindings{"dist": rig.dist, "weight": pmap.WeightMap(g)})
		if err != nil {
			panic(err)
		}
		return b.Action("relax")
	}
	rig.rerun, rig.work = bind(), bind()
	rig.rerun.SetWorkRerun()
	rig.delta = NewDelta(u, rig.work, nil, rig.dist, 4, 1)
	rig.lh = NewDelta(u, rig.work, rig.work, rig.dist, 4, 1)
	rig.dd = NewDelta(u, rig.work, nil, rig.dist, 4, 2)
	return rig
}

// installDelta gives d rank 0's state as Run installs it on r (nil outside
// a run): thread 0 holds a few vertices, an emptied bucket and, with a heavy
// action, a settled set; other threads hold nothing.
func installDelta(d *Delta, r *am.Rank) {
	ls := make([]local, d.threads)
	for t := range ls {
		ls[t] = local{b: NewBuckets(r, 4), settled: map[distgraph.Vertex]bool{}}
	}
	for v, key := range []int64{0, 2, 5, 9, 9} {
		ls[0].b.Insert(distgraph.Vertex(v), key)
	}
	ls[0].b.Pop(0)
	if d.heavy != nil {
		ls[0].settled[1], ls[0].settled[3] = true, true
	}
	d.locals[0] = ls
}

// install gives every Δ shape live state on rank 0.
func (rig *ckptRig) install(r *am.Rank) {
	for _, d := range []*Delta{rig.delta, rig.lh, rig.dd} {
		installDelta(d, r)
	}
}

// bucketsView is what a bucket structure holds: non-empty buckets, the
// active bucket and the deferred-work ledger.
func bucketsView(b *Buckets) any {
	if b == nil {
		return nil
	}
	items := map[int][]distgraph.Vertex{}
	for idx, vs := range b.items {
		if len(vs) > 0 {
			items[idx] = append([]distgraph.Vertex(nil), vs...)
		}
	}
	return []any{items, b.cur, len(b.counted)}
}

// deltaView is what d holds on rank 0: per thread, its buckets and its
// settled set.
func deltaView(d *Delta) func() any {
	return func() any {
		var v []any
		for _, l := range d.locals[0] {
			settled := map[distgraph.Vertex]bool{}
			for u := range l.settled {
				settled[u] = true
			}
			v = append(v, []any{bucketsView(l.b), settled})
		}
		return v
	}
}

// mutateDelta files and pops vertices, leaves a bucket active and changes
// the settled set, as a restarted epoch's body would have.
func mutateDelta(d *Delta) func() {
	return func() {
		ls := d.locals[0]
		b := ls[0].b
		b.Insert(6, 13)
		b.Pop(2)
		b.cur, b.counted[2] = 2, 1
		ls[len(ls)-1].b.Insert(7, 1)
		if d.heavy != nil {
			delete(ls[0].settled, 1)
			ls[0].settled[6] = true
		}
	}
}

// deltaBlob encodes an empty state of the given thread count (0: not
// installed).
func deltaBlob(threads int) []byte {
	var e ckpt.Enc
	e.Bool(threads > 0)
	if threads > 0 {
		e.U32(uint32(threads))
		for range threads {
			e.U32(0) // buckets
			e.U32(0) // settled
		}
	}
	return e.B
}

type ckptCase struct {
	name   string
	ck     am.Checkpointer
	setup  func()     // brings the live state to the one the case snapshots
	mutate func()     // changes that state, nil where there is nothing to change
	view   func() any // the live state, read without SnapshotRank
	other  []byte     // a well-formed blob of another shape
}

// cases is the table: every checkpointer kind, on rank 0 of a run (r).
func (rig *ckptRig) cases(r *am.Rank) []ckptCase {
	var words ckpt.Enc
	words.I64Slice(make([]int64, ckptN+1))
	var setBlob, fewSlots ckpt.Enc
	setBlob.U32(ckptN)
	for i := 0; i < ckptN; i++ {
		setBlob.Bool(i == 1 || i == 2) // slot 0 nil, 1 empty, 2 populated
		switch i {
		case 1:
			setBlob.I64Slice(nil)
		case 2:
			setBlob.I64Slice([]int64{1, 3})
		}
	}
	fewSlots.U32(1)
	fewSlots.Bool(false)
	var flags ckpt.Enc
	flags.U32(3)
	flags.B = append(flags.B, 0, 0, 0)

	edgeView := func(m *pmap.EdgeWord, in bool) func() any {
		return func() any {
			lg := rig.g.Local(0)
			var vals []int64
			for s := 0; s < lg.NumOutEdges(); s++ {
				vals = append(vals, m.Get(0, distgraph.EdgeRef{Slot: uint32(s)}))
				if in {
					vals = append(vals, m.Get(0, distgraph.EdgeRef{Slot: uint32(s), In: true}))
				}
			}
			return vals
		}
	}
	setEdge := func(m *pmap.EdgeWord) func() {
		return func() {
			m.Set(0, distgraph.EdgeRef{Slot: 1}, m.Get(0, distgraph.EdgeRef{Slot: 1})+10)
			m.MirrorIn()
		}
	}
	return []ckptCase{
		{name: "VertexWord", ck: rig.vw, other: words.B,
			mutate: func() { rig.vw.Set(0, 2, 42) },
			view:   func() any { return rig.vw.Gather() }},
		{name: "VertexSet", ck: rig.vs, other: fewSlots.B,
			setup: func() {
				if err := rig.vs.RestoreRank(0, setBlob.B); err != nil {
					panic(err)
				}
			},
			mutate: func() {
				for v := range 3 {
					rig.vs.Insert(0, distgraph.Vertex(v), 5)
				}
			},
			view: func() any {
				var m [][]distgraph.Vertex
				for v := range ckptN {
					m = append(m, rig.vs.Members(0, distgraph.Vertex(v)))
				}
				return m
			}},
		{name: "EdgeWord", ck: rig.ew, other: rig.ewIn.SnapshotRank(0), mutate: setEdge(rig.ew), view: edgeView(rig.ew, false)},
		{name: "EdgeWord/in-mirror", ck: rig.ewIn, other: rig.ew.SnapshotRank(0), mutate: setEdge(rig.ewIn), view: edgeView(rig.ewIn, true)},
		{name: "Delta/not-installed", ck: rig.delta, other: deltaBlob(1), view: deltaView(rig.delta)},
		{name: "Delta/light-heavy/not-installed", ck: rig.lh, other: deltaBlob(1), view: deltaView(rig.lh)},
		{name: "Delta/threads=2/not-installed", ck: rig.dd, other: deltaBlob(2), view: deltaView(rig.dd)},
		{name: "Delta/live", ck: rig.delta, other: deltaBlob(2), view: deltaView(rig.delta),
			setup:  func() { rig.install(r) },
			mutate: mutateDelta(rig.delta)},
		{name: "Delta/light-heavy/live", ck: rig.lh, other: deltaBlob(0), view: deltaView(rig.lh),
			mutate: mutateDelta(rig.lh)},
		{name: "Delta/threads=2/live", ck: rig.dd, other: deltaBlob(3), view: deltaView(rig.dd),
			mutate: mutateDelta(rig.dd)},
		{name: "Engine", ck: rig.eng, other: flags.B,
			setup: func() { rig.dist.Set(0, 0, 0) },
			// A relaxation from 0 raises the modified flag.
			mutate: func() { rig.dist.Set(0, 1, pattern.Inf); rig.rerun.Invoke(r, 0) },
			view: func() any {
				return []any{rig.rerun.ModifiedLocal(r), rig.work.ModifiedLocal(r)}
			}},
	}
}

// TestCheckpointRoundTrip: for every checkpointer kind, two snapshots of one
// state are byte-identical; after a mutation, restoring the snapshot brings
// the live state back to the snapshot's, and the same bytes restore again
// after a second mutation (one snapshot seeds several replays); a blob of
// another shape is an error and changes nothing. The engine's pending re-run
// words are not in its bytes: a replay's new epoch-attempt stamp forgets them
// (TestForgetsOnRollback in internal/algorithms).
func TestCheckpointRoundTrip(t *testing.T) {
	rig := newCkptRig()
	err := rig.u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			for _, c := range rig.cases(r) {
				t.Run(c.name, func(t *testing.T) {
					if c.setup != nil {
						c.setup()
					}
					snap, want := c.ck.SnapshotRank(0), c.view()
					if again := c.ck.SnapshotRank(0); !bytes.Equal(again, snap) {
						t.Fatalf("two snapshots of one state differ:\n%x\n%x", snap, again)
					}
					for i := range 2 {
						if c.mutate != nil {
							c.mutate()
							if reflect.DeepEqual(c.view(), want) {
								t.Fatalf("mutation %d left the state at %v", i, want)
							}
						}
						if err := c.ck.RestoreRank(0, snap); err != nil {
							t.Fatalf("restore %d: %v", i, err)
						}
						if got := c.view(); !reflect.DeepEqual(got, want) {
							t.Fatalf("restore %d: state %v, want %v", i, got, want)
						}
						if got := c.ck.SnapshotRank(0); !bytes.Equal(got, snap) {
							t.Fatalf("restore %d: snapshot %x, want %x", i, got, snap)
						}
					}
					if err := c.ck.RestoreRank(0, c.other); err == nil {
						t.Fatalf("restoring %x of another shape succeeded", c.other)
					}
					if got := c.ck.SnapshotRank(0); !bytes.Equal(got, snap) {
						t.Fatalf("a failed restore changed the state: %x, want %x", got, snap)
					}
				})
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// huge is a count no blob of a few bytes can back.
const huge = 1 << 22

type boundBlob struct {
	ck   am.Checkpointer
	blob []byte
}

// boundBlobs are short blobs whose counts claim 2²² elements, each aimed at a
// decoder that used to size an allocation by the count (32 MiB of VertexSet
// slots, 4 MiB of engine flags, 320 MiB of bucket map, 16 MiB of bucket
// vertices, 32 MiB of per-thread buckets) or that could (a settled set of 2²²
// vertices), or index the live structure by it.
func boundBlobs(rig *ckptRig) map[string]boundBlob {
	enc := func(f func(e *ckpt.Enc)) []byte {
		var e ckpt.Enc
		f(&e)
		return e.B
	}
	return map[string]boundBlob{
		"VertexSet slots":       {rig.vs, enc(func(e *ckpt.Enc) { e.U32(huge); e.U8(0) })},
		"VertexSet short":       {rig.vs, enc(func(e *ckpt.Enc) { e.U32(0) })},
		"VertexWord short":      {rig.vw, enc(func(e *ckpt.Enc) { e.I64Slice([]int64{1}) })},
		"EdgeWord short":        {rig.ew, enc(func(e *ckpt.Enc) { e.I64Slice(nil); e.U8(0) })},
		"Engine flags":          {rig.eng, enc(func(e *ckpt.Enc) { e.U32(huge); e.U8(0) })},
		"Delta buckets":         {rig.delta, enc(func(e *ckpt.Enc) { e.U8(1); e.U32(1); e.U32(huge) })},
		"Delta bucket vertices": {rig.delta, enc(func(e *ckpt.Enc) { e.U8(1); e.U32(1); e.U32(1); e.I64(0); e.U32(huge) })},
		"Delta settled":         {rig.lh, enc(func(e *ckpt.Enc) { e.U8(1); e.U32(1); e.U32(0); e.U32(huge) })},
		"Delta threads":         {rig.dd, enc(func(e *ckpt.Enc) { e.U8(1); e.U32(huge) })},
		"Delta threads short":   {rig.dd, enc(func(e *ckpt.Enc) { e.U8(1); e.U32(1); e.U32(0); e.U32(0) })},
	}
}

// TestRestoreBoundsCountsByBytes: a blob whose count promises more than its
// bytes hold, or a shape the live structure does not have, is an error with
// next to nothing allocated, never a panic.
func TestRestoreBoundsCountsByBytes(t *testing.T) {
	rig := newCkptRig()
	rig.install(nil)
	for name, tc := range boundBlobs(rig) {
		t.Run(name, func(t *testing.T) {
			before := tc.ck.SnapshotRank(0)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := tc.ck.RestoreRank(0, tc.blob)
			runtime.ReadMemStats(&m1)
			if err == nil {
				t.Fatalf("RestoreRank(%x) succeeded", tc.blob)
			}
			if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
				t.Fatalf("RestoreRank allocated %d bytes for a %d-byte blob", got, len(tc.blob))
			}
			if after := tc.ck.SnapshotRank(0); !bytes.Equal(after, before) {
				t.Fatal("a failed restore changed the state")
			}
		})
	}
}

// FuzzRestoreRank feeds arbitrary bytes to every checkpointer's RestoreRank
// (live buckets installed). It must never panic; it either fails and leaves
// the state as it was, or succeeds and leaves exactly the state the bytes
// encode — the next snapshot is the input itself.
func FuzzRestoreRank(f *testing.F) {
	rig := newCkptRig()
	rig.install(nil)
	cks := []am.Checkpointer{rig.vw, rig.vs, rig.ew, rig.ewIn, rig.delta, rig.lh, rig.dd, rig.eng}
	for _, ck := range cks {
		f.Add(ck.SnapshotRank(0))
	}
	for _, tc := range boundBlobs(rig) {
		f.Add(tc.blob)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i, ck := range cks {
			before := ck.SnapshotRank(0)
			err := ck.RestoreRank(0, b)
			after := ck.SnapshotRank(0)
			switch {
			case err != nil && !bytes.Equal(after, before):
				t.Fatalf("checkpointer %d (%T): failed restore (%v) changed the state", i, ck, err)
			case err == nil && !bytes.Equal(after, b):
				t.Fatalf("checkpointer %d (%T): restored %x, which snapshots as %x", i, ck, b, after)
			}
		}
	})
}
