// Command declpat-trace reads substrate trace exports: per-epoch summary
// tables, handler-latency percentiles per message type, per-rank load
// imbalance, and conversion to Chrome trace-event JSON (loadable in Perfetto
// at ui.perfetto.dev, or chrome://tracing). It runs nothing itself.
//
// -in takes a JSONL trace written by Universe.WriteTraceJSONL, or the trace
// directory of a traced declpat-launch run — in process or a fleet — whose
// one timeline, fleet.trace.jsonl, it reads (a fleet's is already merged
// onto the launcher's timebase, one Perfetto process group per worker):
//
//	declpat-launch -workers 0 -algo bfs -scale 12 -trace-dir /tmp/trace
//	declpat-trace -in /tmp/trace
//	declpat-trace -in /tmp/trace -chrome bfs.chrome.json
//
// With -critical-path the tool reconstructs the causal lineage DAG from the
// handler events and reports, per epoch, the weighted critical path (handler
// execution + queue/link wait + quiescence tail), per-rank slack, chain-depth
// histograms, and the slowest epoch's chain itself, rank by rank:
//
//	declpat-trace -in /tmp/trace -critical-path
//	declpat-trace -in run.jsonl -critical-path -path-epoch 2 -path-max 32
//
// With -phases the tool reports the phase-timer breakdown instead: per
// epoch, the distribution of collect/build_csr/kernel/emit/barrier/recovery
// spans across ranks, and per rank, the total time in each phase (the
// straggler view). Requires a trace captured with timing on, as every
// traced launch is. With -json any table report is emitted as a JSON array
// for downstream tooling:
//
//	declpat-trace -in /tmp/trace -phases
//	declpat-trace -in run.jsonl -phases -json
//
// With -postmortem the tool reads the flight-recorder dumps
// (flight-*.dpfr) a launched fleet leaves in its checkpoint/flight
// directory and reconstructs each worker's final moments: the reason and
// epoch of death, phases still open at the kill (a SIGKILLed worker is
// dumped mid-phase), the last landmark events, and per-epoch counter deltas:
//
//	declpat-trace -postmortem /tmp/ckpt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"declpat/internal/harness"
	"declpat/internal/obs"
)

func main() {
	in := flag.String("in", "", "JSONL trace to analyze, or a declpat-launch -trace-dir directory")
	postmortem := flag.String("postmortem", "", "directory of flight-recorder dumps (flight-*.dpfr) to reconstruct")
	chrome := flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
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
	if *in == "" {
		fmt.Fprintln(os.Stderr, "declpat-trace: need -in FILE|DIR or -postmortem DIR (see -help)")
		os.Exit(2)
	}
	meta, recs, err := readTrace(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "declpat-trace:", err)
		os.Exit(1)
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

	// With -json the tables go to stdout as pure JSON; the banner moves to
	// stderr so the output stays machine-parseable.
	banner := os.Stdout
	if *asJSON {
		banner = os.Stderr
	}
	fmt.Fprintln(banner, meta.Banner(len(recs)))
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
		fmt.Fprintf(w, "warning: %d handler events have unresolvable parents (the ring overwrote their producers); paths may be truncated\n\n", lin.Orphans)
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
			first, last := lin.Epochs[0].Epoch, lin.Epochs[0].Epoch
			for _, e := range lin.Epochs {
				first, last = min(first, e.Epoch), max(last, e.Epoch)
			}
			return fmt.Errorf("epoch %d not in trace (epochs %d..%d)", epochSel, first, last)
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

// readTrace reads a JSONL trace file, or the one timeline in a launch's
// trace directory.
func readTrace(path string) (obs.Meta, []obs.Record, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return obs.ReadTraceDir(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return obs.Meta{}, nil, err
	}
	defer f.Close()
	return obs.ReadJSONL(f)
}
