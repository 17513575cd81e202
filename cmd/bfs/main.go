// Command bfs runs a Graph500-style breadth-first search over the simulated
// machine, reporting traversed edges per second (TEPS) and verifying levels
// against a sequential BFS.
//
// Usage:
//
//	bfs -scale 15 -ranks 4 -threads 2 -roots 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"declpat"
	"declpat/internal/algorithms"
	"declpat/internal/seq"
)

func main() {
	scale := flag.Int("scale", 14, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 16, "edges per vertex (Graph500 default 16)")
	seed := flag.Uint64("seed", 1, "generator seed")
	ranks := flag.Int("ranks", 4, "simulated ranks")
	threads := flag.Int("threads", 2, "handler threads per rank")
	roots := flag.Int("roots", 4, "number of BFS roots (Graph500 style)")
	verify := flag.Bool("verify", true, "check against sequential BFS")
	flag.Parse()
	job := declpat.MPJobSpec{Algo: "bfs", Scale: *scale, EdgeFactor: *ef, Seed: *seed, Ranks: *ranks, Threads: *threads}
	if err := job.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "bfs:", err)
		os.Exit(2)
	}

	n, edges := declpat.RMAT(job.Scale, job.EdgeFactor, declpat.WeightSpec{}, job.Seed)
	u := declpat.New(job.Ranks, declpat.WithThreads(job.Threads))
	dist := declpat.NewBlockDist(n, job.Ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	b := declpat.NewBFS(eng)

	srcs := make([]declpat.Vertex, *roots)
	for i := range srcs {
		srcs[i] = declpat.Vertex((uint64(i)*2654435761 + job.Seed) % uint64(n))
	}

	fmt.Printf("bfs: n=%d m=%d ranks=%d threads=%d roots=%d\n", n, len(edges), job.Ranks, job.Threads, *roots)
	levels := make([][]int64, *roots)
	i := 0
	err := u.Run(func(r *declpat.Rank) {
		for ri, src := range srcs {
			start := time.Now()
			b.Run(r, src)
			r.Barrier()
			if r.ID() == 0 {
				elapsed := time.Since(start)
				lv := b.Level.Gather()
				levels[ri] = lv
				traversed := int64(0)
				for _, e := range edges {
					if lv[e.Src] < declpat.Inf {
						traversed++
					}
				}
				teps := float64(traversed) / elapsed.Seconds()
				fmt.Printf("root %6d: time=%-12s traversed=%-9d TEPS=%.3g\n",
					src, elapsed.Round(time.Microsecond), traversed, teps)
				i++
			}
			r.Barrier()
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfs: run failed:", err)
		os.Exit(1)
	}

	if *verify {
		bad := 0
		for ri, src := range srcs {
			bad += algorithms.CountWrong(levels[ri], seq.BFS(n, edges, src))
		}
		if bad != 0 {
			fmt.Printf("VERIFY FAILED: %d wrong levels\n", bad)
			os.Exit(1)
		}
		fmt.Println("verify: OK (matches sequential BFS)")
	}
}
