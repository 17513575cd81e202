package pattern

import (
	"fmt"
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
				if randomRefusal(err) != "" {
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

// TestCarriedSetsExact: a mailed hop carries every word the rest of its item
// reads. Each generated pattern that binds runs three times on a graph where
// every vertex has one out-edge and one in-edge, one invoked vertex per epoch
// — so each epoch runs one item, and the order of its steps is the pattern's
// own wherever the steps run:
//   - on one rank, where nothing is mailed: the sequential reading;
//   - on 2 channel ranks with Direct off, so every hop to the other rank is a
//     message;
//   - on 2 Unix-socket ranks through the fixed wire codec.
//
// The second and third must leave every property and all nine Stats counters
// as the first did. Filter is off in all three: it answers hops at the sender
// only where a hop is mailed, which would move TestsFalse and ModsUnchanged
// without changing any value. The eval hop's PayloadWords must be the slot
// words its pack table writes.
func TestCarriedSetsExact(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewPCG(36, 1))
	perm := rng.Perm(n)
	var edges []distgraph.Edge
	for v, w := range perm {
		edges = append(edges, distgraph.Edge{Src: distgraph.Vertex(v), Dst: distgraph.Vertex(w), W: int64(1 + rng.IntN(9))})
	}
	opts := DefaultPlanOptions()
	opts.Direct, opts.Filter = false, false
	configs := []struct {
		name  string
		ranks int
		opts  func(t *testing.T) []am.Option
	}{
		{"sequential", 1, func(*testing.T) []am.Option { return nil }},
		{"chan", 2, func(*testing.T) []am.Option { return nil }},
		{"unix", 2, func(t *testing.T) []am.Option {
			return []am.Option{am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix", Dir: t.TempDir()}))}
		}},
	}
	ran, mailed := 0, int64(0)
	refused := map[string]int{}
	for seed := uint64(0); seed < 120; seed++ {
		var want string
		for _, cfg := range configs {
			p := randomPattern(rand.New(rand.NewPCG(seed, 99)))
			u := am.New(cfg.ranks, cfg.opts(t)...)
			d := distgraph.NewBlockDist(n, cfg.ranks)
			g := distgraph.Build(d, edges, distgraph.Options{Bidirectional: true})
			eng := NewEngine(u, g, pmap.NewLockMap(d, 1), opts)
			binds := Bindings{}
			var maps []*pmap.VertexWord
			valRng := rand.New(rand.NewPCG(seed, 7))
			for _, pr := range p.Props {
				if pr.Kind == EdgeWordProp {
					binds[pr.Name] = pmap.WeightMap(g)
					continue
				}
				m := pmap.NewVertexWord(d, 0)
				for v := 0; v < n; v++ {
					m.Set(d.Owner(distgraph.Vertex(v)), distgraph.Vertex(v), int64(valRng.IntN(n+2))-1)
				}
				binds[pr.Name] = m
				maps = append(maps, m)
			}
			bound, err := eng.Bind(p, binds)
			if err != nil {
				if r := randomRefusal(err); r != "" {
					refused[r]++
					break
				}
				t.Fatalf("seed %d: bind: %v", seed, err)
			}
			act := bound.Action("act")
			for ci, c := range act.PlanInfo().Conds {
				packed := 0
				pc := &act.prog.conds[ci]
				for _, w := range pc.evalHop().carry {
					if w < MaxSlots {
						packed++
					}
				}
				if c.PayloadWords != packed {
					t.Fatalf("seed %d cond %d: PayloadWords %d, eval hop packs %d slot words", seed, ci, c.PayloadWords, packed)
				}
			}
			if err := u.Run(func(r *am.Rank) {
				for v := 0; v < n; v++ {
					r.Epoch(func(*am.Epoch) {
						if d.Owner(distgraph.Vertex(v)) == r.ID() {
							act.Invoke(r, distgraph.Vertex(v))
						}
					})
				}
			}); err != nil {
				t.Fatalf("seed %d %s: Run: %v", seed, cfg.name, err)
			}
			got := fmt.Sprint(act.Stats.counts())
			for _, m := range maps {
				got += fmt.Sprint(m.Gather())
			}
			if cfg.ranks == 1 {
				want = got
				ran++
				continue
			}
			mailed += u.Stats.MsgsSent()
			if got != want {
				t.Fatalf("seed %d %s: stats and properties differ from the sequential run\nsequential: %s\n%-10s: %s\n%s\n%s",
					seed, cfg.name, want, cfg.name, got, p, act.PlanInfo())
			}
		}
	}
	t.Logf("%d patterns ran (%d messages on 2 ranks); refused: %v", ran, mailed, refused)
	if ran < 60 || mailed == 0 {
		t.Fatalf("only %d patterns ran, %d messages mailed", ran, mailed)
	}
}

// counts is the nine counters in statNames order.
func (s Stats) counts() [numStats]int64 {
	var out [numStats]int64
	for id := range out {
		out[id] = s.c.Total(id)
	}
	return out
}
