// Command sssp runs single-source shortest paths over the simulated
// distributed machine and verifies the result against sequential Dijkstra.
//
// Usage:
//
//	sssp -scale 14 -ranks 4 -threads 2 -strategy delta -delta 32
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"declpat"
	"declpat/internal/algorithms"
	"declpat/internal/seq"
)

func main() {
	scale := flag.Int("scale", 14, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 8, "edges per vertex")
	seed := flag.Uint64("seed", 1, "generator seed")
	ranks := flag.Int("ranks", 4, "simulated ranks")
	threads := flag.Int("threads", 2, "handler threads per rank")
	strat := flag.String("strategy", "fixed-point", "fixed-point | delta | delta-dist")
	delta := flag.Int64("delta", 32, "Δ-stepping bucket width")
	src := flag.Uint("src", 0, "source vertex")
	verify := flag.Bool("verify", true, "check against sequential Dijkstra")
	trace := flag.Int("trace", 0, "record N substrate events and print the tail")
	typeStats := flag.Bool("typestats", false, "print per-message-type traffic")
	flag.Parse()
	job := declpat.MPJobSpec{Algo: "sssp", Scale: *scale, EdgeFactor: *ef, Seed: *seed,
		Ranks: *ranks, Threads: *threads, Source: uint64(*src), Delta: *delta}
	if err := job.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, "sssp:", err)
		os.Exit(2)
	}
	source := declpat.Vertex(job.Source)

	n, edges := declpat.RMAT(job.Scale, job.EdgeFactor, declpat.WeightSpec{Min: 1, Max: 100}, job.Seed)
	u := declpat.New(job.Ranks, declpat.WithThreads(job.Threads), declpat.WithTraceCapacity(*trace))
	dist := declpat.NewBlockDist(n, job.Ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	s := declpat.NewSSSP(eng)
	switch *strat {
	case "fixed-point":
		s.UseFixedPoint()
	case "delta":
		s.UseDelta(u, job.Delta)
	case "delta-dist":
		s.UseDeltaDistributed(u, job.Delta, job.Threads)
	default:
		log.Fatalf("unknown strategy %q", *strat)
	}

	start := time.Now()
	if err := u.Run(func(r *declpat.Rank) { s.Run(r, source) }); err != nil {
		log.Fatalf("run failed: %v", err)
	}
	elapsed := time.Since(start)

	got := s.Dist.Gather()
	reached := 0
	for _, d := range got {
		if d < declpat.Inf {
			reached++
		}
	}
	fmt.Printf("sssp: n=%d m=%d ranks=%d threads=%d strategy=%s\n", n, len(edges), job.Ranks, job.Threads, *strat)
	fmt.Printf("time=%s reached=%d/%d\n", elapsed.Round(time.Microsecond), reached, n)
	fmt.Printf("messages=%d envelopes=%d bytes=%d handlers=%d epochs=%d\n",
		u.Stats.MsgsSent(), u.Stats.Envelopes(), u.Stats.BytesSent(),
		u.Stats.HandlersRun(), u.Stats.Epochs())
	fmt.Printf("relax: attempts=%d succeeded=%d work-items=%d bucket-epochs=%d\n",
		s.Relax.Stats.TestsTrue.Load()+s.Relax.Stats.TestsFalse.Load(),
		s.Relax.Stats.ModsChanged.Load(), s.Relax.Stats.WorkItems.Load(), s.BucketEpochs())

	if *typeStats {
		fmt.Println("per-type traffic:")
		for _, ts := range u.TypeStats() {
			fmt.Printf("  %-24s size=%-3d sent=%-9d handled=%-9d envelopes=%d\n",
				ts.Name, ts.Size, ts.Sent, ts.Handled, ts.Envelopes)
		}
	}
	if *trace > 0 {
		events := u.Trace()
		fmt.Printf("trace: %d events recorded (%d dropped); tail:\n", len(events), u.TraceDropped())
		tail := events
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		for _, ev := range tail {
			fmt.Printf("  %s\n", ev)
		}
	}

	if *verify {
		if bad := algorithms.CountWrong(got, seq.Dijkstra(n, edges, source)); bad != 0 {
			fmt.Printf("VERIFY FAILED: %d wrong distances\n", bad)
			os.Exit(1)
		}
		fmt.Println("verify: OK (matches sequential Dijkstra)")
	}
}
