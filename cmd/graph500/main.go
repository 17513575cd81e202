// Command graph500 runs a Graph500-style BFS benchmark (the workload class
// the paper's introduction cites for HPC-scale graph analytics): kernel 1
// builds the distributed graph from a Kronecker/RMAT edge list, kernel 2
// runs BFS from sampled roots producing parent trees, every tree is
// validated, and TEPS statistics are reported (min/median/max/harmonic
// mean, as the benchmark specifies).
//
// Usage:
//
//	graph500 -scale 16 -edgefactor 16 -roots 16 -ranks 4 -threads 2
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"declpat"
	"declpat/internal/algorithms"
)

func main() {
	scale := flag.Int("scale", 14, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 16, "edges per vertex (Graph500 default 16)")
	seed := flag.Uint64("seed", 2, "generator seed")
	roots := flag.Int("roots", 8, "BFS roots (Graph500 uses 64)")
	ranks := flag.Int("ranks", 4, "simulated ranks")
	threads := flag.Int("threads", 2, "handler threads per rank")
	validate := flag.Bool("validate", true, "validate every parent tree")
	flag.Parse()
	job := declpat.MPJobSpec{Algo: "bfs", Scale: *scale, EdgeFactor: *ef, Seed: *seed, Ranks: *ranks, Threads: *threads}
	if err := job.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "graph500:", err)
		os.Exit(2)
	}

	fmt.Printf("graph500: SCALE=%d edgefactor=%d (%d vertices, %d edges)\n",
		job.Scale, job.EdgeFactor, 1<<job.Scale, (1<<job.Scale)*job.EdgeFactor)

	// Kernel 1: construction.
	genStart := time.Now()
	n, edges := declpat.RMAT(job.Scale, job.EdgeFactor, declpat.WeightSpec{}, job.Seed)
	genTime := time.Since(genStart)

	u := declpat.New(job.Ranks, declpat.WithThreads(job.Threads))
	dist := declpat.NewBlockDist(n, job.Ranks)
	k1 := time.Now()
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	k1Time := time.Since(k1)
	fmt.Printf("generation: %s   kernel1 (construction): %s\n",
		genTime.Round(time.Millisecond), k1Time.Round(time.Millisecond))

	bfs := declpat.NewBFSTree(engFor(u, g, dist))

	// Sample roots with out-degree > 0, deterministically.
	outdeg := make([]int, n)
	for _, e := range edges {
		outdeg[e.Src]++
	}
	var rootList []declpat.Vertex
	x := job.Seed
	for len(rootList) < *roots {
		x = x*6364136223846793005 + 1442695040888963407
		v := declpat.Vertex(x % uint64(n))
		if outdeg[v] > 0 {
			rootList = append(rootList, v)
		}
	}

	// Kernel 2: BFS per root.
	type result struct {
		root      declpat.Vertex
		teps      float64
		traversed int64
		dur       time.Duration
		parent    []int64
	}
	var results []result
	err := u.Run(func(r *declpat.Rank) {
		for _, root := range rootList {
			start := time.Now()
			bfs.Run(r, root)
			r.Barrier()
			if r.ID() == 0 {
				dur := time.Since(start)
				parent := bfs.Parent.Gather()
				traversed := int64(0)
				for _, e := range edges {
					if parent[e.Src] != int64(declpat.NilWord) {
						traversed++
					}
				}
				results = append(results, result{
					root: root, dur: dur, traversed: traversed,
					teps:   float64(traversed) / dur.Seconds(),
					parent: parent,
				})
			}
			r.Barrier()
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graph500: run failed:", err)
		os.Exit(1)
	}

	fmt.Printf("\n%-8s %-12s %-10s %s\n", "root", "time", "edges", "TEPS")
	var teps []float64
	for _, res := range results {
		fmt.Printf("%-8d %-12s %-10d %.4g\n", res.root, res.dur.Round(time.Microsecond), res.traversed, res.teps)
		teps = append(teps, res.teps)
	}
	sort.Float64s(teps)
	harm := 0.0
	for _, t := range teps {
		harm += 1 / t
	}
	harm = float64(len(teps)) / harm
	fmt.Printf("\nTEPS: min=%.4g median=%.4g max=%.4g harmonic-mean=%.4g\n",
		teps[0], teps[len(teps)/2], teps[len(teps)-1], harm)

	if *validate {
		for _, res := range results {
			if err := algorithms.CheckTree(n, edges, res.root, res.parent); err != nil {
				fmt.Printf("VALIDATION FAILED for root %d: %v\n", res.root, err)
				os.Exit(1)
			}
		}
		fmt.Printf("validation: OK (%d trees)\n", len(results))
	}
}

func engFor(u *declpat.Universe, g *declpat.Graph, dist declpat.Distribution) *declpat.Engine {
	return declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
}
