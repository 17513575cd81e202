// Command declpat-trace analyzes substrate trace exports: per-epoch summary
// tables, handler-latency percentiles per message type, per-rank load
// imbalance, and conversion to Chrome trace-event JSON (loadable in Perfetto
// at ui.perfetto.dev, or chrome://tracing).
//
// It either ingests a JSONL trace produced by Universe.WriteTraceJSONL:
//
//	declpat-trace -in run.jsonl
//	declpat-trace -in run.jsonl -chrome run.chrome.json
//
// or runs a built-in traced workload itself and analyzes the capture:
//
//	declpat-trace -run bfs -scale 12 -ranks 4 -out bfs.jsonl -chrome bfs.chrome.json
//
// With -critical-path the tool reconstructs the causal lineage DAG from the
// handler events and reports, per epoch, the weighted critical path (handler
// execution + queue/link wait + quiescence tail), per-rank slack, chain-depth
// histograms, and the slowest epoch's chain itself, rank by rank:
//
//	declpat-trace -run bfs -critical-path
//	declpat-trace -in run.jsonl -critical-path -path-epoch 2 -path-max 32
//
// With -phases the tool reports the phase-timer breakdown instead: per
// epoch, the distribution of collect/build_csr/kernel/emit/barrier/recovery
// spans across ranks, and per rank, the total time in each phase (the
// straggler view). Requires a trace captured with timing on. With
// -json any table report is emitted as a JSON array for downstream tooling:
//
//	declpat-trace -run sssp -phases
//	declpat-trace -in run.jsonl -phases -json
//
// -in also accepts a *directory* of per-worker traces from a multi-process
// launch (worker-*.trace.jsonl, or the coordinator's own fleet.trace.jsonl
// when present): the files are merged onto the launcher timebase using each
// worker's measured clock offset, and every analyzer — -phases, -chrome,
// -critical-path — consumes the merged fleet timeline. -fleet DIR is the
// same thing, spelled explicitly:
//
//	declpat-trace -fleet /tmp/trace -chrome fleet.chrome.json
//	declpat-trace -in /tmp/trace -phases
//
// With -postmortem the tool reads the flight-recorder dumps
// (flight-*.dpfr) a launched fleet leaves in its checkpoint/flight
// directory and reconstructs each worker's final moments: the reason and
// epoch of death, phases still open at the kill (a SIGKILLed worker is
// dumped mid-phase), the last landmark events, and per-epoch counter deltas:
//
//	declpat-trace -postmortem /tmp/ckpt
//
// Supported -run workloads: bfs, sssp, cc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"declpat"
	"declpat/internal/harness"
	"declpat/internal/obs"
)

func main() {
	in := flag.String("in", "", "JSONL trace to analyze, or a directory of worker-*.trace.jsonl to merge")
	fleet := flag.String("fleet", "", "directory of per-worker traces to merge onto the launcher timebase (same as -in DIR)")
	postmortem := flag.String("postmortem", "", "directory of flight-recorder dumps (flight-*.dpfr) to reconstruct")
	run := flag.String("run", "", "run a built-in traced workload instead: bfs | sssp | cc")
	out := flag.String("out", "", "with -run: write the captured trace as JSONL to this file")
	chrome := flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	scale := flag.Int("scale", 12, "with -run: RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 8, "with -run: edges per vertex")
	seed := flag.Uint64("seed", 42, "with -run: generator seed")
	ranks := flag.Int("ranks", 4, "with -run: simulated ranks")
	threads := flag.Int("threads", 2, "with -run: handler threads per rank")
	capacity := flag.Int("cap", 1<<20, "with -run: trace ring capacity (events, split evenly across ranks)")
	critPath := flag.Bool("critical-path", false, "reconstruct the causal lineage DAG and report per-epoch critical paths")
	pathEpoch := flag.Int64("path-epoch", -1, "with -critical-path: print the chain of this epoch (-1 = slowest)")
	pathMax := flag.Int("path-max", 48, "with -critical-path: elide chain rows beyond this many hops (0 = no limit)")
	phases := flag.Bool("phases", false, "report the per-epoch phase breakdown and per-rank phase load (needs Timing-on trace)")
	asJSON := flag.Bool("json", false, "emit the analyzer tables as a JSON array instead of text")
	flag.Parse()

	if *postmortem != "" {
		if err := postmortemReport(os.Stdout, *postmortem); err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			os.Exit(1)
		}
		return
	}
	if *fleet != "" {
		*in = *fleet
	}

	var meta obs.Meta
	var recs []obs.Record
	switch {
	case *run != "":
		u, err := runWorkload(*run, *scale, *ef, *seed, *ranks, *threads, *capacity)
		if err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			fmt.Fprintln(os.Stderr, "usage: declpat-trace -run WORKLOAD [-scale N] [-ranks N] [-out FILE] [-chrome FILE]")
			fmt.Fprintln(os.Stderr, "supported workloads: bfs, sssp, cc")
			os.Exit(2)
		}
		meta, recs = u.ExportTrace(*run)
		if *out != "" {
			if err := writeFile(*out, func(f *os.File) error {
				return obs.WriteJSONL(f, meta, recs)
			}); err != nil {
				fmt.Fprintln(os.Stderr, "declpat-trace:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d trace records to %s\n", len(recs), *out)
		}
	case *in != "":
		var err error
		if st, serr := os.Stat(*in); serr == nil && st.IsDir() {
			meta, recs, err = obs.ReadTraceDir(*in)
		} else {
			err = func() error {
				f, err := os.Open(*in)
				if err != nil {
					return err
				}
				defer f.Close()
				meta, recs, err = obs.ReadJSONL(f)
				return err
			}()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "declpat-trace: need -in FILE|DIR, -fleet DIR, -postmortem DIR, or -run bfs|sssp|cc (see -help)")
		os.Exit(2)
	}

	if *chrome != "" {
		if err := writeFile(*chrome, func(f *os.File) error {
			return obs.WriteChromeTrace(f, meta, recs)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (load at ui.perfetto.dev)\n", *chrome)
	}

	label := meta.Label
	if label == "" {
		label = "(unlabeled)"
	}
	// With -json the tables go to stdout as pure JSON; the banner moves to
	// stderr so the output stays machine-parseable.
	banner := os.Stdout
	if *asJSON {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "trace: %s — %d records, %d ranks, %d message types", label, len(recs), meta.Ranks, len(meta.Types))
	if meta.ClockErrNS > 0 {
		fmt.Fprintf(banner, " (cross-process alignment ±%.1fµs)", float64(meta.ClockErrNS)/1e3)
	}
	if meta.Dropped > 0 {
		fmt.Fprintf(banner, " (%d events overwritten by the ring — raise -cap or WithTraceCapacity)", meta.Dropped)
	}
	fmt.Fprintln(banner)
	if *critPath {
		if err := criticalPathReport(os.Stdout, meta, recs, *pathEpoch, *pathMax); err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			os.Exit(1)
		}
		return
	}

	var tables []*harness.Table
	if *phases {
		tables = obs.PhaseTables(meta, recs)
		if tables[0].Rows() == 0 && tables[1].Rows() == 0 {
			fmt.Fprintln(os.Stderr, "declpat-trace: trace has no phase spans (captured with timing off?)")
			os.Exit(1)
		}
	} else {
		tables = obs.Analyze(meta, recs)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "declpat-trace:", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range tables {
		fmt.Println()
		t.Fprint(os.Stdout)
	}
}

// criticalPathReport reconstructs the lineage forest and prints the
// per-epoch critical-path summary, per-rank slack, the chain-depth
// histogram, and the hop-by-hop chain of one epoch (the slowest by span
// unless epochSel selects another). It errors — so the CLI can exit
// non-zero — when the trace carries no lineage or yields no path.
func criticalPathReport(w io.Writer, meta obs.Meta, recs []obs.Record, epochSel int64, maxHops int) error {
	lin := obs.BuildLineage(meta, recs)
	if lin.Handlers() == 0 {
		return fmt.Errorf("trace has no handler lineage events (captured with Lineage off, or before lineage existed)")
	}
	paths := lin.CriticalPaths()
	if len(paths) == 0 {
		return fmt.Errorf("no epoch yielded a critical path")
	}
	if !lin.Connected() {
		fmt.Fprintf(w, "warning: %d handler events have unresolvable parents (ring overwrote their producers — raise -cap); paths may be truncated\n\n", lin.Orphans)
	}
	obs.CriticalPathTable(lin).Fprint(w)
	fmt.Fprintln(w)
	obs.RankSlackTable(lin).Fprint(w)
	fmt.Fprintln(w)
	obs.ChainDepthTable(lin).Fprint(w)
	fmt.Fprintln(w)

	var pick *obs.CriticalPath
	if epochSel >= 0 {
		for _, cp := range paths {
			if cp.Epoch == epochSel {
				pick = cp
				break
			}
		}
		if pick == nil {
			return fmt.Errorf("epoch %d not in trace (epochs 0..%d)", epochSel, len(lin.Epochs)-1)
		}
	} else {
		for _, cp := range paths {
			if pick == nil || cp.SpanNs > pick.SpanNs {
				pick = cp
			}
		}
	}
	if len(pick.Hops) == 0 {
		return fmt.Errorf("epoch %d has an empty critical path", pick.Epoch)
	}
	obs.ChainTable(pick, maxHops).Fprint(w)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload executes one traced built-in workload and returns its universe.
func runWorkload(name string, scale, ef int, seed uint64, ranks, threads, capacity int) (*declpat.Universe, error) {
	u := declpat.New(ranks,
		declpat.WithThreads(threads),
		declpat.WithTraceCapacity(capacity),
		declpat.WithTiming())
	dist := declpat.NewBlockDist(1<<scale, ranks)
	var err error
	switch name {
	case "bfs":
		n, edges := declpat.RMAT(scale, ef, declpat.WeightSpec{}, seed)
		g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
		eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
		b := declpat.NewBFS(eng)
		err = u.Run(func(r *declpat.Rank) { b.Run(r, declpat.Vertex(seed%uint64(n))) })
	case "sssp":
		n, edges := declpat.RMAT(scale, ef, declpat.WeightSpec{Min: 1, Max: 100}, seed)
		g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
		eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
		s := declpat.NewSSSP(eng)
		err = u.Run(func(r *declpat.Rank) { s.Run(r, declpat.Vertex(seed%uint64(n))) })
	case "cc":
		_, edges := declpat.RMAT(scale, ef, declpat.WeightSpec{}, seed)
		g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{Symmetrize: true})
		lm := declpat.NewLockMap(dist, 1)
		eng := declpat.NewEngine(u, g, lm, declpat.DefaultPlanOptions())
		c := declpat.NewCC(eng, lm)
		err = u.Run(func(r *declpat.Rank) { c.Run(r) })
	default:
		return nil, fmt.Errorf("unknown workload %q (want bfs, sssp, or cc)", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s run failed: %w", name, err)
	}
	return u, nil
}
