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

	n, edges := declpat.RMAT(*scale, *ef, declpat.WeightSpec{Min: 1, Max: 100}, *seed)
	if *src >= uint(n) {
		fmt.Fprintf(os.Stderr, "sssp: -src %d outside the %d vertices of a scale-%d graph\n", *src, n, *scale)
		os.Exit(2)
	}
	u := declpat.New(*ranks, declpat.WithThreads(*threads), declpat.WithTraceCapacity(*trace))
	dist := declpat.NewBlockDist(n, *ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	s := declpat.NewSSSP(eng)
	switch *strat {
	case "fixed-point":
		s.UseFixedPoint()
	case "delta":
		s.UseDelta(u, *delta)
	case "delta-dist":
		s.UseDeltaDistributed(u, *delta, *threads)
	default:
		log.Fatalf("unknown strategy %q", *strat)
	}

	start := time.Now()
	if err := u.Run(func(r *declpat.Rank) { s.Run(r, declpat.Vertex(*src)) }); err != nil {
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
	fmt.Printf("sssp: n=%d m=%d ranks=%d threads=%d strategy=%s\n", n, len(edges), *ranks, *threads, *strat)
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
		want := seq.Dijkstra(n, edges, declpat.Vertex(*src))
		bad := 0
		for v := range want {
			w := want[v]
			if w == seq.Inf {
				w = declpat.Inf
			}
			if got[v] != w {
				bad++
			}
		}
		if bad != 0 {
			fmt.Printf("VERIFY FAILED: %d wrong distances\n", bad)
			os.Exit(1)
		}
		fmt.Println("verify: OK (matches sequential Dijkstra)")
	}
}
