package pattern_test

import (
	"slices"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/pattern"
)

// TestEntryLoopMatchesRun: an entry of a relax-shaped action runs through the
// typed loop exactly as it runs item by item through the step walk — the same
// maps, counters, staged sends and hook calls on one rank, on two co-resident
// channel ranks with Direct and Filter each on and off, and on two Unix-socket
// ranks through the fixed wire codec (pattern.EntryLoopMatchesRun). It covers
// every action of the bundled patterns that takes the typed loop, which must
// be exactly the nine below; a raising relax whose self-loops change v's own
// word for the items after them; and every random draw that takes the loop.
func TestEntryLoopMatchesRun(t *testing.T) {
	bundled := []func() *pattern.Pattern{
		algorithms.SSSPPattern,
		func() *pattern.Pattern { return algorithms.SSSPLightHeavyPattern(4) },
		algorithms.BFSPattern,
		algorithms.BFSTreePattern,
		algorithms.WidestPattern,
		algorithms.PageRankPushPattern,
		algorithms.PageRankPullPattern,
		algorithms.DegreePattern,
		func() *pattern.Pattern { return algorithms.KCorePattern(3) },
		algorithms.CCPattern,
		algorithms.MISPattern,
		algorithms.BetweennessPattern,
	}
	cov := pattern.LoopCoverage{}
	var loops []string
	actions := 0
	for _, mk := range bundled {
		actions += len(mk().Actions)
		for _, a := range pattern.EntryLoopMatchesRun(t, mk, cov) {
			loops = append(loops, mk().Name+"."+a)
		}
	}
	want := []string{
		"SSSP.relax", "SSSP-light-heavy.relax_light", "SSSP-light-heavy.relax_heavy",
		"BFS.bfs", "Widest.widen", "PageRank-push.spread", "Degree.count",
		"KCore-3.notify", "CC.cc_link",
	}
	if !slices.Equal(loops, want) {
		t.Errorf("bundled actions that take the typed loop: %v, want %v", loops, want)
	}
	t.Logf("%d of %d bundled actions take the typed loop", len(loops), actions)
	cov.Check(t)

	// x[trg(e)] max= x[v] + w[e]: on a self-loop the item raises x[v], which
	// every later item of the entry reads.
	raise := func() *pattern.Pattern {
		p := pattern.New("Raise")
		x, w := p.VertexProp("x"), p.EdgeProp("w")
		p.Action("raise", pattern.OutEdges()).Do().SetMax(x.At(pattern.Trg()), pattern.Add(x.At(pattern.V()), w.At(pattern.E())))
		return p
	}
	if got := pattern.EntryLoopMatchesRun(t, raise, pattern.LoopCoverage{}); !slices.Equal(got, []string{"raise"}) {
		t.Errorf("Raise: actions that take the typed loop %v, want [raise]", got)
	}

	rcov := pattern.LoopCoverage{}
	draws := 0
	const seeds = 30000
	for seed := range uint64(seeds) {
		if len(pattern.EntryLoopMatchesRun(t, func() *pattern.Pattern { return pattern.RandomPattern(seed) }, rcov)) > 0 {
			draws++
		}
	}
	t.Logf("%d of %d random draws take the typed loop", draws, seeds)
	if draws < 20 {
		t.Fatalf("only %d random draws take the typed loop", draws)
	}
	rcov.Check(t)
}
