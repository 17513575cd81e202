// Command experiments runs the full reproduction suite (E1–E21, see
// DESIGN.md) and prints every table. EXPERIMENTS.md records one run of this
// command.
//
// Usage:
//
//	experiments [-scale N] [-edgefactor N] [-seed N] [-only E5,E8] [-debug ADDR] [-bench-json FILE]
//
// With -bench-json the suite additionally writes a machine-readable report
// (per-experiment wall time plus message/envelope/handler totals summed
// from Universe.Metrics of every universe the experiment built); CI archives
// it so substrate-cost regressions are a diffable artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"declpat/internal/experiments"
	"declpat/internal/harness"
)

func main() {
	scale := flag.Int("scale", 12, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 8, "edges per vertex")
	seed := flag.Uint64("seed", 42, "generator seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	debug := flag.String("debug", "", "serve pprof/expvar on this address (e.g. localhost:6060) while the suite runs")
	benchJSON := flag.String("bench-json", "", "write a machine-readable per-experiment bench report to this file")
	codecJSON := flag.String("codec-json", "", "run only the E20 codec matrix and write its records as JSON to this file")
	transportJSON := flag.String("transport-json", "", "run only the E21 transport matrix and write its records as JSON to this file")
	obsJSON := flag.String("obs-json", "", "run only the E22 phase-timer matrix and write its records as JSON to this file")
	flag.Parse()

	writeJSON := func(path, label string, v any, n int) {
		f, err := os.Create(path)
		if err == nil {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			err = enc.Encode(v)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("# %s report: %s (%d records)\n", label, path, n)
	}

	if *codecJSON != "" {
		sc := experiments.Scale{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}
		recs := experiments.E20CodecRecords(sc)
		writeJSON(*codecJSON, "codec", recs, len(recs))
		return
	}
	if *transportJSON != "" {
		sc := experiments.Scale{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}
		recs := experiments.E21TransportRecords(sc)
		writeJSON(*transportJSON, "transport", recs, len(recs))
		return
	}
	if *obsJSON != "" {
		sc := experiments.Scale{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}
		recs := experiments.E22ObsRecords(sc)
		writeJSON(*obsJSON, "obs", recs, len(recs))
		return
	}

	if *debug != "" {
		srv, err := harness.NewDebugServer(*debug)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: debug server:", err)
			}
		}()
		fmt.Printf("debug server: http://%s/debug/pprof/ (expvar at /debug/vars)\n\n", srv.Addr())
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	sc := experiments.Scale{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}
	rep := experiments.BenchReport{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}
	if *benchJSON != "" {
		experiments.BenchEnable()
	}
	fmt.Printf("# Experiment suite — RMAT scale %d, edge factor %d, seed %d\n\n", *scale, *ef, *seed)
	total := time.Now()
	for _, ex := range experiments.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		fmt.Printf("# %s: %s\n\n", ex.ID, ex.Title)
		start := time.Now()
		tables := ex.Run(sc)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		elapsed := time.Since(start)
		fmt.Printf("(%s in %s)\n\n", ex.ID, elapsed.Round(time.Millisecond))
		if *benchJSON != "" {
			msgs, envelopes, handlers, universes := experiments.BenchCollect()
			rep.Records = append(rep.Records, experiments.BenchRecord{
				ID: ex.ID, Title: ex.Title, WallNs: elapsed.Nanoseconds(),
				Msgs: msgs, Envelopes: envelopes, Handlers: handlers, Universes: universes,
			})
		}
	}
	fmt.Printf("# total: %s\n", time.Since(total).Round(time.Millisecond))
	if *benchJSON != "" {
		rep.TotalNs = time.Since(total).Nanoseconds()
		f, err := os.Create(*benchJSON)
		if err == nil {
			err = experiments.WriteBenchJSON(f, rep)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("# bench report: %s (%d experiments)\n", *benchJSON, len(rep.Records))
	}
}
