// Package strategy implements the paper's strategies (§II): user-level
// programs that apply pattern actions in a specific order using the
// framework's primitives — epochs, epoch_flush, try_finish, and the actions'
// work hooks.
//
// Provided strategies, as in the paper: FixedPoint (rerun the action at
// every dependent vertex until quiescence), Once (apply the action to a
// vertex set once, reporting whether anything changed), and Delta
// (Δ-stepping, one collective epoch per bucket, with per-thread local buckets
// and try_finish-driven termination as in §III-D, and optionally the
// light/heavy edge split of §II-A).
//
// Strategies that install work hooks are constructed before Universe.Run
// (hooks are engine-global state); their Run method is then called SPMD
// from every rank's body.
package strategy

import (
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/obs"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// FixedPoint is the paper's fixed_point strategy:
//
//	strategy fixed_point(action a, container vertices) {
//	  a.work(Vertex v) = { a(v) };
//	  epoch { for (v in vertices) a(v); }
//	}
type FixedPoint struct {
	a *pattern.BoundAction
}

// NewFixedPoint installs the rerun-on-dependency work hook on a. Call before
// Universe.Run.
func NewFixedPoint(a *pattern.BoundAction) *FixedPoint {
	a.SetWorkRerun()
	return &FixedPoint{a: a}
}

// Run applies the action to this rank's seed vertices inside one collective
// epoch and returns when the whole system reaches a fixed point. Collective.
func (fp *FixedPoint) Run(r *am.Rank, seeds []distgraph.Vertex) {
	r.Epoch(func(ep *am.Epoch) {
		ph := r.Phase(obs.PhaseCollect)
		for _, v := range seeds {
			fp.a.Invoke(r, v)
		}
		ph.End()
	})
}

// Once is the paper's once strategy: apply the action to every vertex in the
// input set within one epoch and report whether any property-map
// modification changed a value anywhere in the system. It does not install a
// work hook (dependencies are ignored by default, §III-C). Collective.
func Once(r *am.Rank, a *pattern.BoundAction, vs []distgraph.Vertex) bool {
	return OnceOver(r, a, func() []distgraph.Vertex { return vs })
}

// OnceOver is Once with the vertex set evaluated lazily, inside the epoch
// body. The distinction matters for multi-process checkpoint/restart: a
// replacement process re-executes the algorithm with pre-restart epoch
// bodies skipped and its state restored at the restart epoch's entry, so a
// vertex set derived from property-map state (CC's conflicting-roots list)
// must be computed after that restore — i.e. inside the epoch — not in the
// inter-epoch code that a fast-forwarding replay runs against unrestored
// state. Collective.
func OnceOver(r *am.Rank, a *pattern.BoundAction, rootsOf func() []distgraph.Vertex) bool {
	a.ResetModified(r)
	r.Barrier()
	r.Epoch(func(ep *am.Epoch) {
		ph := r.Phase(obs.PhaseCollect)
		for _, v := range rootsOf() {
			a.Invoke(r, v)
		}
		ph.End()
	})
	return r.AllReduceOr(a.ModifiedLocal(r))
}

// Delta is the paper's Δ-stepping strategy (§II-A):
//
//	strategy delta(action a, container vertices, property-map m, delta Δ) {
//	  buckets B;
//	  for (v in vertices) B.insert(v, m[v], Δ);
//	  a.work(Vertex v) = { B.insert(v, m[v], Δ); }
//	  while (!B.empty()) { epoch { while (!B[i].empty()) a(B[i].pop()); } i++; }
//	}
//
// Each bucket is drained in its own collective epoch; work-hook inserts into
// the active bucket keep the epoch alive via the deferred-work counter, and
// inserts into later buckets carry over to later epochs.
//
// Every body thread of every rank has its own local buckets (§III-D: "When a
// thread runs out of work locally, it tries to terminate the epoch ... If
// ending the epoch is unsuccessful, the thread goes back to its local bucket
// structure and tries to perform more work."); one thread is Fig. 1's
// per-rank buckets. With a heavy action the strategy splits light and heavy
// edges (§II-A: "relaxing heavy edges, which cannot insert more work into the
// current bucket, separately from light edges"): a is relax_light, guarded by
// weight < Δ, and after each bucket's epoch one more epoch relaxes the heavy
// edges of the vertices that bucket settled, exactly once. The entry-local
// weight guards are hoisted by the planner's early-exit optimization, so
// heavy edges cost no messages during the light phase.
type Delta struct {
	a, heavy *pattern.BoundAction
	keys     *pmap.VertexWord
	delta    int64
	threads  int
	locals   [][]local // [rank][thread], nil until Run installs a rank's

	// BucketEpochs counts per-bucket epochs executed (experiment metric);
	// heavy epochs are not counted.
	BucketEpochs int
}

// local is one body thread's share of a rank's Δ-stepping state.
type local struct {
	b *Buckets
	// settled holds the vertices the current bucket's epoch popped, which
	// the heavy epoch then relaxes; it stays empty without a heavy action.
	settled map[distgraph.Vertex]bool
}

// NewDelta installs the bucket-insert work hook on a (and on heavy, if not
// nil). keys is the property map providing each vertex's numeric key (the
// paper's m); delta is the bucket width; threads is the number of body
// threads per rank, each with its own buckets (at least 1), and a vertex is
// filed into the buckets its hash selects. Call before Universe.Run.
func NewDelta(u *am.Universe, a, heavy *pattern.BoundAction, keys *pmap.VertexWord, delta int64, threads int) *Delta {
	d := &Delta{a: a, heavy: heavy, keys: keys, delta: delta, threads: max(threads, 1), locals: make([][]local, u.Ranks())}
	hook := func(r *am.Rank, v distgraph.Vertex) { d.file(r.ID(), v) }
	a.SetWork(hook)
	if heavy != nil {
		heavy.SetWork(hook)
	}
	u.RegisterCheckpointer(d)
	return d
}

// file inserts v into the buckets of the thread its hash selects on rank.
func (d *Delta) file(rank int, v distgraph.Vertex) {
	ls := d.locals[rank]
	ls[int(uint32(v)*2654435761)%len(ls)].b.Insert(v, d.keys.Get(rank, v))
}

// Run executes Δ-stepping from this rank's seeds. Collective.
func (d *Delta) Run(r *am.Rank, seeds []distgraph.Vertex) {
	ph := r.Phase(obs.PhaseBuildCSR)
	ls := make([]local, d.threads)
	for t := range ls {
		ls[t] = local{b: NewBuckets(r, d.delta), settled: map[distgraph.Vertex]bool{}}
	}
	d.locals[r.ID()] = ls
	for _, v := range seeds {
		d.file(r.ID(), v)
	}
	ph.End()
	r.Barrier()
	for {
		lo := NoBucket
		for _, l := range ls {
			lo = min(lo, l.b.MinNonEmpty())
		}
		idx := int(r.AllReduceMin(int64(lo)))
		if idx == NoBucket {
			return
		}
		if r.ID() == 0 {
			d.BucketEpochs++
		}
		r.EpochThreaded(d.threads, func(tid int, ep *am.Epoch) {
			l := ls[tid]
			l.b.BeginBucket(idx)
			for {
				for {
					v, ok := popLive(l.b, idx, d.keys, r.ID())
					if !ok {
						break
					}
					if d.heavy != nil {
						l.settled[v] = true
					}
					d.a.Invoke(r, v)
				}
				if ep.TryFinish() {
					return
				}
			}
		})
		for _, l := range ls {
			l.b.EndBucket()
		}
		if d.heavy == nil {
			continue
		}
		// Heavy phase: each vertex settled in this bucket relaxes its heavy
		// edges once; results land in later buckets.
		r.EpochThreaded(d.threads, func(tid int, ep *am.Epoch) {
			ph := r.Phase(obs.PhaseEmit)
			for v := range ls[tid].settled {
				d.heavy.Invoke(r, v)
			}
			clear(ls[tid].settled)
			ph.End()
		})
	}
}

// popLive pops bucket idx until it yields a vertex whose key still files it
// there. Insert files a vertex again on every change of its key, so an entry
// whose key has since moved to another bucket is stale: the hook filed the
// vertex there too, and that entry is (or was) expanded with a value at least
// as new — expanding this one would offer the same values again.
func popLive(b *Buckets, idx int, keys *pmap.VertexWord, rank int) (distgraph.Vertex, bool) {
	for {
		v, ok := b.Pop(idx)
		if !ok || b.Index(keys.Get(rank, v)) == idx {
			return v, ok
		}
	}
}
