// Command cc runs the §II-B parallel-search connected-components algorithm
// and verifies the partition against sequential union-find.
//
// Usage:
//
//	cc -scale 14 -ranks 4 -threads 2 -flushevery 16
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"declpat"
	"declpat/internal/algorithms"
	"declpat/internal/seq"
)

func main() {
	scale := flag.Int("scale", 14, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 4, "edges per vertex")
	seed := flag.Uint64("seed", 1, "generator seed")
	ranks := flag.Int("ranks", 4, "simulated ranks")
	threads := flag.Int("threads", 2, "handler threads per rank")
	flushEvery := flag.Int("flushevery", 1, "search starts per epoch_flush (Fig. 3 pacing)")
	verify := flag.Bool("verify", true, "check against sequential union-find")
	flag.Parse()
	job := declpat.MPJobSpec{Algo: "cc", Scale: *scale, EdgeFactor: *ef, Seed: *seed, Ranks: *ranks, Threads: *threads}
	if err := job.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "cc:", err)
		os.Exit(2)
	}

	n, edges := declpat.RMAT(job.Scale, job.EdgeFactor, declpat.WeightSpec{}, job.Seed)
	u := declpat.New(job.Ranks, declpat.WithThreads(job.Threads))
	dist := declpat.NewBlockDist(n, job.Ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{Symmetrize: true})
	lm := declpat.NewLockMap(dist, 1)
	eng := declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions())
	c := algorithms.NewCC(eng, lm)
	c.FlushEvery = *flushEvery

	start := time.Now()
	if err := u.Run(func(r *declpat.Rank) { c.Run(r) }); err != nil {
		fmt.Fprintln(os.Stderr, "cc: run failed:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	comp := c.Comp.Gather()
	sizes := map[int64]int{}
	for _, l := range comp {
		sizes[l]++
	}
	var sorted []int
	for _, s := range sizes {
		sorted = append(sorted, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	top := sorted
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Printf("cc: n=%d m=%d ranks=%d threads=%d flush-every=%d\n", n, len(edges), job.Ranks, job.Threads, *flushEvery)
	fmt.Printf("time=%s components=%d largest=%v\n", elapsed.Round(time.Microsecond), len(sizes), top)
	fmt.Printf("searches=%d jump-rounds=%d messages=%d\n", c.SearchesStarted(), c.JumpRounds, u.Stats.MsgsSent())

	if *verify {
		if bad := algorithms.WrongPartition(comp, seq.Components(n, edges)); bad != 0 {
			fmt.Printf("VERIFY FAILED: %d inconsistent vertices\n", bad)
			os.Exit(1)
		}
		fmt.Println("verify: OK (partition matches union-find)")
	}
}
