// Command plan prints the library patterns in the paper's concrete syntax
// (§III) together with their compiled message plans (§IV), under a chosen
// set of planner options — a developer tool for inspecting what
// communication a pattern turns into.
//
// Usage:
//
//	plan [-merge=false] [-fold=false] [-naive] [-earlyexit=false] [-direct=false] [-filter=false] [-coalesce=false] [SSSP|CC|BFS|Widest|Degree|PageRankPush|PageRankPull]
//
// In a condition's line, msgs= is the messages one generated item costs when
// every hop changes vertex, and payload= is the payload words the eval hop's
// message carries behind its destination: the gathered and folded words a
// later step reads (0 when the eval hop never leaves v).
package main

import (
	"flag"
	"fmt"
	"os"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

func main() {
	merge := flag.Bool("merge", true, "merge condition evaluation with the first modification (§IV-A)")
	fold := flag.Bool("fold", true, "fold local subexpressions into payload temporaries (Fig. 6)")
	naive := flag.Bool("naive", false, "naive depth-first gather order with backtracking (Fig. 5)")
	earlyExit := flag.Bool("earlyexit", true, "evaluate entry-decidable test conjuncts before sending")
	direct := flag.Bool("direct", true, "mark single-word hops for in-place application on co-resident ranks")
	filter := flag.Bool("filter", true, "mark monotone eval hops for the send-side filter")
	coalesce := flag.Bool("coalesce", true, "mark actions with no add modification for coalesced re-invocation")
	dot := flag.Bool("dot", false, "emit Graphviz digraphs of the plans instead of text")
	flag.Parse()

	library := map[string]func() *pattern.Pattern{
		"SSSP":         algorithms.SSSPPattern,
		"CC":           algorithms.CCPattern,
		"BFS":          algorithms.BFSPattern,
		"Widest":       algorithms.WidestPattern,
		"Degree":       algorithms.DegreePattern,
		"BFSTree":      algorithms.BFSTreePattern,
		"PageRankPush": algorithms.PageRankPushPattern,
		"PageRankPull": algorithms.PageRankPullPattern,
		"LightHeavy":   func() *pattern.Pattern { return algorithms.SSSPLightHeavyPattern(32) },
		"KCore":        func() *pattern.Pattern { return algorithms.KCorePattern(3) },
	}
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"SSSP", "CC", "BFS", "Widest", "Degree", "BFSTree", "PageRankPush", "PageRankPull", "LightHeavy", "KCore"}
	}
	opts := pattern.PlanOptions{Merge: *merge, Fold: *fold, NaiveDFS: *naive, EarlyExit: *earlyExit, Direct: *direct, Filter: *filter, Coalesce: *coalesce}
	fmt.Printf("planner options: %+v\n\n", opts)
	for _, name := range names {
		mk, ok := library[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown pattern %q\n", name)
			os.Exit(2)
		}
		p := mk()
		if *dot {
			for _, pi := range compile(p, opts) {
				fmt.Print(pi.Dot())
			}
			continue
		}
		fmt.Print(p.String())
		for _, pi := range compile(p, opts) {
			fmt.Print(pi)
		}
		fmt.Println()
	}
}

// compile binds p against throwaway storage to obtain plans.
func compile(p *pattern.Pattern, opts pattern.PlanOptions) []pattern.PlanInfo {
	u := am.New(1)
	d := distgraph.NewBlockDist(2, 1)
	g := distgraph.Build(d, []distgraph.Edge{{Src: 0, Dst: 1, W: 1}}, distgraph.Options{Bidirectional: true})
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, opts)
	binds := pattern.Bindings{}
	for _, pr := range p.Props {
		switch pr.Kind {
		case pattern.VertexWordProp:
			binds[pr.Name] = pmap.NewVertexWord(d, 0)
		case pattern.EdgeWordProp:
			binds[pr.Name] = pmap.WeightMap(g)
		case pattern.VertexSetProp:
			binds[pr.Name] = pmap.NewVertexSet(d, lm)
		}
	}
	bound, err := eng.Bind(p, binds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile %s: %v\n", p.Name, err)
		os.Exit(1)
	}
	var out []pattern.PlanInfo
	for _, a := range p.Actions {
		out = append(out, bound.Action(a.Name).PlanInfo())
	}
	return out
}
