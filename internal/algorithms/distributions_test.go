package algorithms

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// TestAlgorithmsAcrossDistributions runs SSSP and CC under every
// distribution kind: object-based addressing must be correct regardless of
// how vertices map to ranks (block, cyclic, hashed).
func TestAlgorithmsAcrossDistributions(t *testing.T) {
	n, edges := gen.RMAT(8, 8, gen.Weights{Min: 1, Max: 50}, 201)
	wantD := seq.Dijkstra(n, edges, 0)
	wantC := seq.Components(n, edges)
	dists := map[string]func(ranks int) distgraph.Distribution{
		"block":  func(r int) distgraph.Distribution { return distgraph.NewBlockDist(n, r) },
		"cyclic": func(r int) distgraph.Distribution { return distgraph.NewCyclicDist(n, r) },
		"hash":   func(r int) distgraph.Distribution { return distgraph.NewHashDist(n, r, 5) },
	}
	for name, mk := range dists {
		t.Run(name, func(t *testing.T) {
			const ranks = 4
			{
				u := am.New(ranks, am.WithThreads(2))
				d := mk(ranks)
				g := distgraph.Build(d, edges, distgraph.Options{})
				eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), pattern.DefaultPlanOptions())
				s := NewSSSP(eng)
				u.Run(func(r *am.Rank) { s.Run(r, 0) })
				checkDist(t, name+"/sssp", s.Dist.Gather(), wantD)
			}
			{
				u := am.New(ranks, am.WithThreads(2))
				d := mk(ranks)
				g := distgraph.Build(d, edges, distgraph.Options{Symmetrize: true})
				lm := pmap.NewLockMap(d, 1)
				eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
				c := NewCC(eng, lm)
				c.FlushEvery = 8
				u.Run(func(r *am.Rank) { c.Run(r) })
				sameComponents(t, name+"/cc", c.Comp.Gather(), wantC)
			}
		})
	}
}

// TestSSSPDialAlias: Δ-stepping with Δ=1 on integer weights is Dial's
// label-setting algorithm — the §II-A label-setting end of the spectrum —
// and must settle each distance class exactly once (bucket epochs ≈ the
// largest finite distance / 1).
func TestSSSPDialLabelSetting(t *testing.T) {
	n, edges := gen.Torus2D(12, 12, gen.Weights{Min: 1, Max: 3}, 2)
	want := seq.Dijkstra(n, edges, 0)
	u := am.New(2, am.WithThreads(1))
	d := distgraph.NewBlockDist(n, 2)
	g := distgraph.Build(d, edges, distgraph.Options{})
	eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), pattern.DefaultPlanOptions())
	s := NewSSSP(eng)
	s.UseDelta(u, 1)
	u.Run(func(r *am.Rank) { s.Run(r, 0) })
	checkDist(t, "dial", s.Dist.Gather(), want)
	maxFinite := int64(0)
	for _, dv := range want {
		if dv != seq.Inf && dv > maxFinite {
			maxFinite = dv
		}
	}
	if be := int64(s.BucketEpochs()); be < maxFinite/2 || be > 3*maxFinite {
		t.Fatalf("bucket epochs %d vs max distance %d: not label-setting-shaped", be, maxFinite)
	}
}
