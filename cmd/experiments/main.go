// Command experiments runs the full reproduction suite (E1–E22, see
// DESIGN.md) and prints every table. EXPERIMENTS.md records one run of this
// command.
//
// Usage:
//
//	experiments [-scale N] [-edgefactor N] [-seed N] [-only E5,E8] [-debug ADDR] [-json FILE]
//
// With -json the command prints no table: it runs the record matrices of the
// selected experiments that have one (E20 codec, E21 transport, E22 phase
// timers) and writes them to FILE as one object keyed by lower-case id,
// {"e20": […], "e21": […], "e22": […]}, which `benchcheck -matrix` embeds
// and gates. It exits 2 if no selected experiment has records.
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func main() {
	scale := flag.Int("scale", 12, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 8, "edges per vertex")
	seed := flag.Uint64("seed", 42, "generator seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	debug := flag.String("debug", "", "serve pprof/expvar on this address (e.g. localhost:6060) while the suite runs")
	jsonOut := flag.String("json", "", "run only the record matrices (E20, E21, E22) of the selected experiments and write them as JSON to this file")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	var selected []experiments.Experiment
	for _, ex := range experiments.All() {
		if len(want) == 0 || want[ex.ID] {
			selected = append(selected, ex)
		}
	}
	sc := experiments.Scale{RMATScale: *scale, EdgeFactor: *ef, Seed: *seed}

	if *jsonOut != "" {
		recs := map[string]any{}
		for _, ex := range selected {
			if ex.Records != nil {
				recs[strings.ToLower(ex.ID)] = ex.Records(sc)
			}
		}
		if len(recs) == 0 {
			fmt.Fprintln(os.Stderr, "experiments: -json: no selected experiment has records (E20, E21 and E22 do)")
			os.Exit(2)
		}
		buf, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("# records: %s (%d matrices)\n", *jsonOut, len(recs))
		return
	}

	if *debug != "" {
		srv, err := harness.NewDebugServer(*debug)
		if err != nil {
			fail(err)
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

	fmt.Printf("# Experiment suite — RMAT scale %d, edge factor %d, seed %d\n\n", *scale, *ef, *seed)
	total := time.Now()
	for _, ex := range selected {
		fmt.Printf("# %s: %s\n\n", ex.ID, ex.Title)
		start := time.Now()
		for _, t := range ex.Run(sc) {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("(%s in %s)\n\n", ex.ID, time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("# total: %s\n", time.Since(total).Round(time.Millisecond))
}
