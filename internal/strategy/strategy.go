// Package strategy implements the paper's strategies (§II): user-level
// programs that apply pattern actions in a specific order using the
// framework's primitives — epochs, epoch_flush, try_finish, and the actions'
// work hooks.
//
// Provided strategies, as in the paper: FixedPoint (rerun the action at
// every dependent vertex until quiescence), Once (apply the action to a
// vertex set once, reporting whether anything changed), Delta (Δ-stepping
// with per-rank buckets, one collective epoch per bucket), and
// DeltaDistributed (per-thread local buckets with try_finish-driven
// termination, §III-D).
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
type Delta struct {
	a     *pattern.BoundAction
	keys  *pmap.VertexWord
	delta int64
	rankBuckets

	// BucketEpochs counts per-bucket epochs executed (experiment metric).
	BucketEpochs int
}

// NewDelta installs the bucket-insert work hook on a. keys is the property
// map providing each vertex's numeric key (the paper's m); delta is the
// bucket width. Call before Universe.Run.
func NewDelta(u *am.Universe, a *pattern.BoundAction, keys *pmap.VertexWord, delta int64) *Delta {
	d := &Delta{a: a, keys: keys, delta: delta, rankBuckets: make(rankBuckets, u.Ranks())}
	a.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		d.rankBuckets[r.ID()].Insert(v, keys.Get(r.ID(), v))
	})
	u.RegisterCheckpointer(d)
	return d
}

// Run executes Δ-stepping from this rank's seeds. Collective.
func (d *Delta) Run(r *am.Rank, seeds []distgraph.Vertex) {
	ph := r.Phase(obs.PhaseBuildCSR)
	b := NewBuckets(r, d.delta)
	d.rankBuckets[r.ID()] = b
	for _, v := range seeds {
		b.Insert(v, d.keys.Get(r.ID(), v))
	}
	ph.End()
	r.Barrier()
	for {
		idx := int(r.AllReduceMin(int64(b.MinNonEmpty())))
		if idx == NoBucket {
			return
		}
		if r.ID() == 0 {
			d.BucketEpochs++
		}
		r.Epoch(func(ep *am.Epoch) {
			b.BeginBucket(idx)
			for {
				for {
					v, ok := popLive(b, idx, d.keys, r.ID())
					if !ok {
						break
					}
					d.a.Invoke(r, v)
				}
				if ep.TryFinish() {
					return
				}
			}
		})
		b.EndBucket()
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

// DeltaLightHeavy is Δ-stepping with the light/heavy edge split the paper
// notes as a further optimization (§II-A: "relaxing heavy edges, which
// cannot insert more work into the current bucket, separately from light
// edges"). The pattern supplies two actions — relax_light guarded by
// weight < Δ and relax_heavy guarded by weight ≥ Δ — and the strategy
// drains each bucket with light relaxations (which may refill it), then
// relaxes the heavy edges of the settled vertices exactly once. The
// entry-local weight guards are hoisted by the planner's early-exit
// optimization, so heavy edges cost no messages during the light phase.
type DeltaLightHeavy struct {
	light, heavy *pattern.BoundAction
	keys         *pmap.VertexWord
	delta        int64
	rankBuckets

	// BucketEpochs counts light-phase epochs executed.
	BucketEpochs int
}

// NewDeltaLightHeavy installs bucket-insert work hooks on both actions.
// Call before Universe.Run.
func NewDeltaLightHeavy(u *am.Universe, light, heavy *pattern.BoundAction, keys *pmap.VertexWord, delta int64) *DeltaLightHeavy {
	d := &DeltaLightHeavy{light: light, heavy: heavy, keys: keys, delta: delta, rankBuckets: make(rankBuckets, u.Ranks())}
	hook := func(r *am.Rank, v distgraph.Vertex) {
		d.rankBuckets[r.ID()].Insert(v, keys.Get(r.ID(), v))
	}
	light.SetWork(hook)
	heavy.SetWork(hook)
	u.RegisterCheckpointer(d)
	return d
}

// Run executes light/heavy Δ-stepping from this rank's seeds. Collective.
func (d *DeltaLightHeavy) Run(r *am.Rank, seeds []distgraph.Vertex) {
	ph := r.Phase(obs.PhaseBuildCSR)
	b := NewBuckets(r, d.delta)
	d.rankBuckets[r.ID()] = b
	for _, v := range seeds {
		b.Insert(v, d.keys.Get(r.ID(), v))
	}
	ph.End()
	r.Barrier()
	for {
		idx := int(r.AllReduceMin(int64(b.MinNonEmpty())))
		if idx == NoBucket {
			return
		}
		if r.ID() == 0 {
			d.BucketEpochs++
		}
		settled := map[distgraph.Vertex]bool{}
		r.Epoch(func(ep *am.Epoch) {
			b.BeginBucket(idx)
			for {
				for {
					v, ok := popLive(b, idx, d.keys, r.ID())
					if !ok {
						break
					}
					settled[v] = true
					d.light.Invoke(r, v)
				}
				if ep.TryFinish() {
					return
				}
			}
		})
		b.EndBucket()
		// Heavy phase: each vertex settled in this bucket relaxes its
		// heavy edges once; results land in later buckets.
		r.Epoch(func(ep *am.Epoch) {
			ph := r.Phase(obs.PhaseEmit)
			for v := range settled {
				d.heavy.Invoke(r, v)
			}
			ph.End()
		})
	}
}

// DeltaDistributed is the distributed Δ-stepping variant of §III-D: "every
// thread on every node has its own local buckets. When a thread runs out of
// work locally, it tries to terminate the epoch ... If ending the epoch is
// unsuccessful, the thread goes back to its local bucket structure and tries
// to perform more work."
type DeltaDistributed struct {
	a       *pattern.BoundAction
	keys    *pmap.VertexWord
	delta   int64
	threads int
	buckets [][]*Buckets // [rank][thread]

	// BucketEpochs counts per-bucket epochs executed.
	BucketEpochs int
}

// NewDeltaDistributed installs a work hook that files dependent vertices
// into the per-thread bucket selected by vertex hash. Call before
// Universe.Run.
func NewDeltaDistributed(u *am.Universe, a *pattern.BoundAction, keys *pmap.VertexWord, delta int64, threads int) *DeltaDistributed {
	if threads < 1 {
		threads = 1
	}
	d := &DeltaDistributed{
		a: a, keys: keys, delta: delta, threads: threads,
		buckets: make([][]*Buckets, u.Ranks()),
	}
	a.SetWork(func(r *am.Rank, v distgraph.Vertex) {
		lb := d.buckets[r.ID()]
		lb[int(uint32(v)*2654435761)%len(lb)].Insert(v, keys.Get(r.ID(), v))
	})
	u.RegisterCheckpointer(d)
	return d
}

// Run executes distributed Δ-stepping from this rank's seeds. Collective.
func (d *DeltaDistributed) Run(r *am.Rank, seeds []distgraph.Vertex) {
	ph := r.Phase(obs.PhaseBuildCSR)
	locals := make([]*Buckets, d.threads)
	for t := range locals {
		locals[t] = NewBuckets(r, d.delta)
	}
	d.buckets[r.ID()] = locals
	for _, v := range seeds {
		locals[int(uint32(v)*2654435761)%len(locals)].Insert(v, d.keys.Get(r.ID(), v))
	}
	ph.End()
	r.Barrier()
	for {
		min := int64(NoBucket)
		for _, lb := range locals {
			if m := int64(lb.MinNonEmpty()); m < min {
				min = m
			}
		}
		idx := int(r.AllReduceMin(min))
		if idx == NoBucket {
			return
		}
		if r.ID() == 0 {
			d.BucketEpochs++
		}
		r.EpochThreaded(d.threads, func(tid int, ep *am.Epoch) {
			lb := locals[tid]
			lb.BeginBucket(idx)
			for {
				for {
					v, ok := popLive(lb, idx, d.keys, r.ID())
					if !ok {
						break
					}
					d.a.Invoke(r, v)
				}
				if ep.TryFinish() {
					return
				}
			}
		})
		for _, lb := range locals {
			lb.EndBucket()
		}
	}
}
