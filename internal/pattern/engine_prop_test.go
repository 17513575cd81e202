package pattern

import (
	"math/rand/v2"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pmap"
)

// TestRandomPatternsRun executes random patterns end to end: every run must
// terminate (epochs quiesce even for garbage patterns), never panic, and the
// generator fan-out (Items) must be identical across machine configurations.
// NIL and out-of-range property values used as localities behave as NULL
// (condition false), so arbitrary stored words are safe.
func TestRandomPatternsRun(t *testing.T) {
	const n = 32
	edges := gen.ER(n, 96, gen.Weights{Min: 1, Max: 9}, 5)
	shapes := []struct{ ranks, threads int }{{1, 0}, {3, 2}}
	for seed := uint64(0); seed < 60; seed++ {
		var items [2]int64
		for i, sh := range shapes {
			rng := rand.New(rand.NewPCG(seed, 99))
			p := randomPattern(rng)
			u := am.New(sh.ranks, am.WithThreads(sh.threads))
			d := distgraph.NewBlockDist(n, sh.ranks)
			g := distgraph.Build(d, edges, distgraph.Options{Bidirectional: true})
			lm := pmap.NewLockMap(d, 1)
			eng := NewEngine(u, g, lm, DefaultPlanOptions())
			binds := Bindings{}
			valRng := rand.New(rand.NewPCG(seed, 7))
			for _, pr := range p.Props {
				switch pr.Kind {
				case VertexWordProp:
					m := pmap.NewVertexWord(d, 0)
					for r := 0; r < sh.ranks; r++ {
						m.ForEachLocal(r, func(v distgraph.Vertex, _ int64) {
							m.Set(r, v, int64(valRng.IntN(n)))
						})
					}
					binds[pr.Name] = m
				case EdgeWordProp:
					binds[pr.Name] = pmap.WeightMap(g)
				case VertexSetProp:
					binds[pr.Name] = pmap.NewVertexSet(d, lm)
				}
			}
			bound, err := eng.Bind(p, binds)
			if err != nil {
				if containsStr(err.Error(), "payload slots") ||
					containsStr(err.Error(), "in-edges") {
					break
				}
				t.Fatalf("seed %d: bind: %v", seed, err)
			}
			act := bound.Action("act")
			u.Run(func(r *am.Rank) {
				r.Epoch(func(ep *am.Epoch) {
					lg := g.Local(r.ID())
					for li := 0; li < lg.NumLocal(); li++ {
						act.Invoke(r, g.Dist().Global(r.ID(), li))
					}
				})
			})
			items[i] = act.Stats.Items.Load()
		}
		if items[0] != items[1] && items[1] != 0 {
			t.Fatalf("seed %d: generator items differ across configs: %d vs %d", seed, items[0], items[1])
		}
	}
}
