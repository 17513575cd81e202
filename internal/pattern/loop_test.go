package pattern

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pmap"
)

// The typed entry loop (engine.go, loop) against the item path it stands in
// for.
// TestEntryLoopMatchesRun lives in the external test package, which can
// import the bundled patterns (internal/algorithms imports this package); the
// check itself needs the engine's internals and is exported to it from here.

// loopMachine is one machine the entries run on.
type loopMachine struct {
	name           string
	ranks          int
	direct, filter bool
	unix           bool // Unix-socket ranks through the fixed wire codec
}

// loopMachines: one rank; two co-resident channel ranks with Direct and
// Filter each on and off; two Unix-socket ranks, which are not co-resident,
// so Direct cannot engage and the filter can.
var loopMachines = []loopMachine{
	{"1-rank", 1, true, true, false},
	{"chan/direct+filter", 2, true, true, false},
	{"chan/direct", 2, true, false, false},
	{"chan/filter", 2, false, true, false},
	{"chan/neither", 2, false, false, false},
	{"unix/wire", 2, true, true, true},
}

const loopN = 24

// loopEdges is a random multigraph on loopN vertices with a self-loop at every
// third vertex: through a self-loop an earlier item of an entry changes what a
// later item of the same entry loads.
func loopEdges() []distgraph.Edge {
	rng := rand.New(rand.NewPCG(39, 1))
	var edges []distgraph.Edge
	for range 4 * loopN {
		edges = append(edges, distgraph.Edge{Src: distgraph.Vertex(rng.IntN(loopN)), Dst: distgraph.Vertex(rng.IntN(loopN)), W: int64(1 + rng.IntN(9))})
	}
	for v := 0; v < loopN; v += 3 {
		edges = append(edges, distgraph.Edge{Src: distgraph.Vertex(v), Dst: distgraph.Vertex(v), W: int64(1 + rng.IntN(9))})
	}
	return edges
}

// loopOutcome is what running one entry at every vertex left behind.
type loopOutcome struct {
	maps  []string          // every bound map's snapshot, by property then rank
	stats [][numStats]int64 // the counters the entries added, by rank
	sends []loopSend        // the staged sends, in staging order per entry and destination
	hooks []loopHook        // the work-hook calls, in order
}

type loopSend struct {
	rank  int // the rank that ran the entry
	entry distgraph.Vertex
	dest  int
	h     hopMsg
}

type loopHook struct {
	rank int
	v    distgraph.Vertex
}

// loopBind binds mk's pattern on machine mc, with every map seeded the same
// way, and returns the maps in property order; a nil Bound when Bind refuses
// the pattern.
func loopBind(t *testing.T, mk func() *Pattern, mc loopMachine) (*am.Universe, *Engine, *Bound, []interface{ SnapshotRank(int) []byte }) {
	t.Helper()
	var opts []am.Option
	if mc.unix {
		opts = append(opts, am.WithTransport(am.SockTransport(am.SockOptions{Network: "unix", Dir: t.TempDir()})))
	}
	u := am.New(mc.ranks, opts...)
	d := distgraph.NewBlockDist(loopN, mc.ranks)
	g := distgraph.Build(d, loopEdges(), distgraph.Options{Bidirectional: true})
	lm := pmap.NewLockMap(d, 1)
	po := DefaultPlanOptions()
	po.Direct, po.Filter = mc.direct, mc.filter
	eng := NewEngine(u, g, lm, po)
	p := mk()
	rng := rand.New(rand.NewPCG(39, 2))
	binds := Bindings{}
	var maps []interface{ SnapshotRank(int) []byte }
	for _, pr := range p.Props {
		switch pr.Kind {
		case VertexWordProp:
			m := pmap.NewVertexWord(d, 0)
			for v := range loopN {
				m.Set(d.Owner(distgraph.Vertex(v)), distgraph.Vertex(v), int64(rng.IntN(loopN+2))-1)
			}
			binds[pr.Name], maps = m, append(maps, m)
		case EdgeWordProp:
			m := pmap.WeightMap(g)
			binds[pr.Name], maps = m, append(maps, m)
		case VertexSetProp:
			// Members are mostly vertices, now and then one past the graph.
			m := pmap.NewVertexSet(d, lm)
			for v := range loopN {
				for range rng.IntN(4) {
					m.Insert(d.Owner(distgraph.Vertex(v)), distgraph.Vertex(v), distgraph.Vertex(rng.IntN(loopN+1)))
				}
			}
			binds[pr.Name], maps = m, append(maps, m)
		}
	}
	bound, err := eng.Bind(p, binds)
	if err != nil {
		if randomRefusal(err) != "" {
			return u, eng, nil, nil
		}
		t.Fatalf("%s: bind: %v", p.Name, err)
	}
	return u, eng, bound, maps
}

// runEntries binds mk's pattern on machine mc and runs one entry of the named
// action at every vertex, rank after rank, each in a cursor of its own that
// is recorded and never released: nothing is mailed, so no entry sees
// another's sends. rerun installs the coalesced rerun hook instead of a
// recording one. itemByItem drops the action's typed item, so its entries run
// through item and run.
func runEntries(t *testing.T, mk func() *Pattern, name string, mc loopMachine, rerun, itemByItem bool) (out loopOutcome) {
	t.Helper()
	u, eng, bound, maps := loopBind(t, mk, mc)
	d, g := eng.dist, eng.g
	ba := bound.Action(name)
	if itemByItem {
		ba.prog.relax = nil
	}
	hooks := make([][]loopHook, mc.ranks)
	if rerun {
		ba.SetWorkRerun()
	} else {
		ba.SetWork(func(r *am.Rank, v distgraph.Vertex) { hooks[r.ID()] = append(hooks[r.ID()], loopHook{r.ID(), v}) })
	}
	out.stats = make([][numStats]int64, mc.ranks)
	sends := make([][]loopSend, mc.ranks)
	done := make([]chan struct{}, mc.ranks)
	for i := range done {
		done[i] = make(chan struct{})
	}
	if err := u.Run(func(r *am.Rank) {
		r.Epoch(func(*am.Epoch) {
			rank := r.ID()
			if rank > 0 {
				<-done[rank-1]
			}
			defer close(done[rank])
			for li := range g.Local(rank).NumLocal() {
				v := d.Global(rank, li)
				c := &cursor{out: make([][]hopMsg, mc.ranks), stamp: u.EpochAttempt(rank)}
				ba.enter(r, c, v, eng.site(v))
				for id, n := range c.n {
					out.stats[rank][id] += n
				}
				for dest, run := range c.out {
					for _, h := range run {
						sends[rank] = append(sends[rank], loopSend{rank, v, dest, h})
					}
				}
			}
		})
	}); err != nil {
		t.Fatalf("%s.%s on %s: Run: %v", bound.Pattern.Name, name, mc.name, err)
	}
	for rank := range mc.ranks {
		out.sends = append(out.sends, sends[rank]...)
		out.hooks = append(out.hooks, hooks[rank]...)
	}
	for _, m := range maps {
		for rank := range mc.ranks {
			out.maps = append(out.maps, string(m.SnapshotRank(rank)))
		}
	}
	return out
}

// LoopCoverage sums, by machine name, what the loop did across
// EntryLoopMatchesRun calls.
type LoopCoverage map[string]*loopTally

type loopTally struct {
	stats  [numStats]int64
	mailed int64 // staged plan steps, as opposed to entries and firings
}

func (cov LoopCoverage) add(mc loopMachine, o loopOutcome) {
	s := cov[mc.name]
	if s == nil {
		s = new(loopTally)
		cov[mc.name] = s
	}
	for _, rs := range o.stats {
		for id, n := range rs {
			s.stats[id] += n
		}
	}
	for _, sd := range o.sends {
		if sd.h.Hop >= 0 {
			s.mailed++
		}
	}
}

// Check fails t unless the loop took each of run's decisions exactly where the
// machine allows it: applied and failed updates everywhere; mailed hops on two
// ranks, unless Direct is on and they are co-resident; direct application
// where it is; filtered hops where the filter is on and hops are mailed.
func (cov LoopCoverage) Check(t *testing.T) {
	t.Helper()
	for _, mc := range loopMachines {
		s := cov[mc.name]
		if s == nil {
			t.Errorf("%s: the loop never ran", mc.name)
			continue
		}
		t.Logf("%s: %d mailed hops; %v = %v", mc.name, s.mailed, statNames, s.stats)
		mailed := mc.ranks > 1 && (mc.unix || !mc.direct)
		for _, c := range []struct {
			what string
			want bool
			n    int64
		}{
			{"changed updates", true, s.stats[sModsChanged]},
			{"unchanged updates", true, s.stats[sModsUnchanged]},
			{"mailed hops", mailed, s.mailed},
			{"direct hops", mc.ranks > 1 && mc.direct && !mc.unix, s.stats[sDirectHops]},
			{"filtered hops", mailed && mc.filter, s.stats[sFilteredHops]},
		} {
			if c.want != (c.n > 0) {
				t.Errorf("%s: %d %s, want %s", mc.name, c.n, c.what, map[bool]string{true: "some", false: "none"}[c.want])
			}
		}
	}
}

// EntryLoopMatchesRun runs, for every action of mk's pattern that takes the
// typed loop (program.relax) and on every machine of loopMachines, one entry
// at every vertex two ways, each on fresh copies of the same maps: through the
// loop, and item by item through item and run — with a recording work hook, and for a coalescible
// action also with the coalesced rerun hook. The two must leave identical
// maps, add identical counters on every rank, stage identical sends (the
// destination rank and the message, in order) and call the hook identically.
// It returns the names of the actions that take the typed loop (nil when Bind
// refuses the pattern) and adds what the loop did to cov.
func EntryLoopMatchesRun(t *testing.T, mk func() *Pattern, cov LoopCoverage) []string {
	t.Helper()
	_, _, bound, _ := loopBind(t, mk, loopMachines[0])
	if bound == nil {
		return nil
	}
	var loops []string
	for _, a := range bound.Pattern.Actions {
		ba := bound.Action(a.Name)
		if ba.prog.relax == nil {
			continue
		}
		loops = append(loops, a.Name)
		for _, mc := range loopMachines {
			for _, rerun := range []bool{false, true} {
				if rerun && !ba.ca.coalesce {
					continue
				}
				got := runEntries(t, mk, a.Name, mc, rerun, false)
				want := runEntries(t, mk, a.Name, mc, rerun, true)
				loopDiff(t, fmt.Sprintf("%s.%s on %s (rerun hook %v)", bound.Pattern.Name, a.Name, mc.name, rerun), want, got)
				cov.add(mc, got)
			}
		}
	}
	return loops
}

// loopDiff reports the first difference between the item path's outcome and
// the loop's.
func loopDiff(t *testing.T, where string, want, got loopOutcome) {
	t.Helper()
	switch {
	case !reflect.DeepEqual(got.stats, want.stats):
		t.Errorf("%s: counters by rank\nloop:         %v\nitem by item: %v\n(%v)", where, got.stats, want.stats, statNames)
	case !reflect.DeepEqual(got.sends, want.sends):
		for i := range min(len(got.sends), len(want.sends)) {
			if got.sends[i] != want.sends[i] {
				t.Errorf("%s: staged send %d: loop %+v, item by item %+v", where, i, got.sends[i], want.sends[i])
				return
			}
		}
		t.Errorf("%s: loop staged %d sends, item by item %d", where, len(got.sends), len(want.sends))
	case !reflect.DeepEqual(got.hooks, want.hooks):
		t.Errorf("%s: work hook calls\nloop:         %v\nitem by item: %v", where, got.hooks, want.hooks)
	case !reflect.DeepEqual(got.maps, want.maps):
		t.Errorf("%s: the maps differ", where)
	}
}

// RandomPattern is the random-pattern generator's draw for seed.
func RandomPattern(seed uint64) *Pattern {
	return randomPattern(rand.New(rand.NewPCG(seed, 99)))
}
