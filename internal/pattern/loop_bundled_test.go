package pattern_test

import (
	"slices"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/pattern"
)

// TestEntryLoopMatchesRun: an entry of a loop-shaped action runs through the
// loop exactly as it runs item by item through the step walk — the same maps,
// counters, staged sends and hook calls on one rank, on two co-resident
// channel ranks with Direct and Filter each on and off, and on two Unix-socket
// ranks through the fixed wire codec (pattern.EntryLoopMatchesRun). It covers
// every loop-shaped action of the bundled patterns, which must be exactly the
// nine below, and every loop-shaped draw of the random-pattern generator.
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
		t.Errorf("loop-shaped bundled actions: %v, want %v", loops, want)
	}
	t.Logf("%d of %d bundled actions are loop-shaped", len(loops), actions)
	cov.Check(t)

	rcov := pattern.LoopCoverage{}
	draws := 0
	const seeds = 2000
	for seed := range uint64(seeds) {
		if len(pattern.EntryLoopMatchesRun(t, func() *pattern.Pattern { return pattern.RandomPattern(seed) }, rcov)) > 0 {
			draws++
		}
	}
	t.Logf("%d of %d random draws are loop-shaped", draws, seeds)
	if draws < 20 {
		t.Fatalf("only %d random draws are loop-shaped", draws)
	}
	rcov.Check(t)
}
