// Command benchcheck turns `go test -bench -benchmem` output into a
// machine-readable JSON report and gates CI on allocation/size regressions.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkCodec' -benchmem ./internal/am/ > bench.txt
//	benchcheck -in bench.txt [-e20 e20.json] [-e21 e21.json] [-json BENCH_codec.json] \
//	           [-baseline BENCH_codec.json] [-filter fixed] [-tolerance "B/op=20,allocs/op=5"]
//
// Parsing accepts any benchmark line (name, iterations, then value/unit
// pairs); the trailing -N GOMAXPROCS suffix is stripped so results match
// across machines with different core counts. With -baseline, every parsed
// benchmark whose name contains -filter is compared against the same name
// in the baseline on the B/op, allocs/op, and wire_B metrics; a current
// value exceeding baseline*(1+tolerance)+slack fails the run. ns/op is
// deliberately not gated — wall time is too machine-dependent for CI.
//
// -tolerance sets the allowed regression in percent: a bare number ("20")
// applies to every gated metric, and metric=percent entries ("B/op=20,
// allocs/op=5") set per-metric budgets (unlisted metrics keep the default).
// The older -max-regress fraction is the fallback when -tolerance is unset.
//
// With -e20/-e21/-e22 the given JSON files (the E20 codec matrix from
// `experiments -codec-json`, the E21 transport matrix from
// `experiments -transport-json`, the E22 phase-timer matrix from
// `experiments -obs-json`) are embedded in the report, so the committed
// BENCH_*.json carries both the microbenchmark baseline and the
// end-to-end table.
//
// With -e21 and -baseline together the E21 matrix is gated too, cell by
// (algo, detector, transport) cell: every cell must read wrong == 0, and a
// cell the baseline also has may not exceed the baseline's msgs or
// retransmits (both lower-is-better) by more than -tolerance's "msgs" and
// "retransmits" budgets plus -slack. Both counts drift with scheduling in
// multi-threaded runs, so the budgets are wide: the gate is for a change that
// starts mailing what it used not to, not for noise.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Benchmarks []Benchmark     `json:"benchmarks"`
	E20        json.RawMessage `json:"e20,omitempty"`
	E21        json.RawMessage `json:"e21,omitempty"`
	E22        json.RawMessage `json:"e22,omitempty"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output: every line starting with "Benchmark"
// becomes one Benchmark; everything else (goos/pkg headers, PASS) is
// ignored.
func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:    gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
			Iters:   iters,
			Metrics: map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchcheck: bad value %q on line %q", fields[i], sc.Text())
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// gatedMetrics are the deterministic-enough metrics compared against the
// baseline. ns/op is excluded on purpose.
var gatedMetrics = []string{"B/op", "allocs/op", "wire_B"}

// tolerances holds the allowed fractional regression per metric plus the
// default for metrics without their own entry.
type tolerances struct {
	def   float64
	byKey map[string]float64
}

func (t tolerances) of(metric string) float64 {
	if v, ok := t.byKey[metric]; ok {
		return v
	}
	return t.def
}

// parseTolerance reads the -tolerance spec: a bare percent ("20") sets the
// default for every gated metric; metric=percent entries ("B/op=20,
// allocs/op=5") set per-metric budgets. fallback (the -max-regress fraction)
// is the default when the spec has no bare entry.
func parseTolerance(spec string, fallback float64) (tolerances, error) {
	t := tolerances{def: fallback, byKey: map[string]float64{}}
	if spec == "" {
		return t, nil
	}
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		key, val := "", ent
		if i := strings.LastIndex(ent, "="); i >= 0 {
			key, val = strings.TrimSpace(ent[:i]), strings.TrimSpace(ent[i+1:])
		}
		pct, err := strconv.ParseFloat(val, 64)
		if err != nil || pct < 0 {
			return t, fmt.Errorf("bad tolerance entry %q (want percent, e.g. \"20\" or \"B/op=20\")", ent)
		}
		if key == "" {
			t.def = pct / 100
		} else {
			t.byKey[key] = pct / 100
		}
	}
	return t, nil
}

// compare checks every current benchmark matching filter against the
// baseline and returns the list of violations.
func compare(current, baseline []Benchmark, filter string, tol tolerances, slack float64) []string {
	base := map[string]Benchmark{}
	for _, b := range baseline {
		base[b.Name] = b
	}
	var bad []string
	matched := 0
	for _, b := range current {
		if filter != "" && !strings.Contains(b.Name, filter) {
			continue
		}
		ref, ok := base[b.Name]
		if !ok {
			continue // new benchmark: no baseline yet, passes
		}
		matched++
		for _, m := range gatedMetrics {
			cur, ok1 := b.Metrics[m]
			was, ok2 := ref.Metrics[m]
			if !ok1 || !ok2 {
				continue
			}
			limit := was*(1+tol.of(m)) + slack
			if cur > limit {
				bad = append(bad, fmt.Sprintf("%s %s: %.1f > limit %.1f (baseline %.1f, +%.0f%% + %.0f slack)",
					b.Name, m, cur, limit, was, tol.of(m)*100, slack))
			}
		}
	}
	if matched == 0 {
		bad = append(bad, fmt.Sprintf("no current benchmark matching %q had a baseline entry — wrong -filter or empty baseline?", filter))
	}
	return bad
}

// e21Cell is what the gate reads of one E21 transport-matrix record
// (experiments.TransportRecord).
type e21Cell struct {
	Algo        string  `json:"algo"`
	Detector    string  `json:"detector"`
	Transport   string  `json:"transport"`
	Msgs        float64 `json:"msgs"`
	Retransmits float64 `json:"retransmits"`
	Wrong       int     `json:"wrong"`
}

func (c e21Cell) key() string { return c.Algo + "/" + c.Detector + "/" + c.Transport }

// compareE21 gates the current E21 matrix against the baseline's and returns
// the list of violations.
func compareE21(current, baseline json.RawMessage, tol tolerances, slack float64) ([]string, error) {
	var cur, ref []e21Cell
	if err := json.Unmarshal(current, &cur); err != nil {
		return nil, fmt.Errorf("current e21 matrix: %v", err)
	}
	if len(baseline) > 0 { // a baseline without a matrix matches nothing, below
		if err := json.Unmarshal(baseline, &ref); err != nil {
			return nil, fmt.Errorf("baseline e21 matrix: %v", err)
		}
	}
	base := map[string]e21Cell{}
	for _, c := range ref {
		base[c.key()] = c
	}
	var bad []string
	matched := 0
	for _, c := range cur {
		if c.Wrong != 0 {
			bad = append(bad, fmt.Sprintf("e21 %s: wrong = %d, want 0", c.key(), c.Wrong))
		}
		was, ok := base[c.key()]
		if !ok {
			continue // new cell: no baseline yet
		}
		matched++
		for _, m := range []struct {
			name     string
			cur, was float64
		}{{"msgs", c.Msgs, was.Msgs}, {"retransmits", c.Retransmits, was.Retransmits}} {
			if limit := m.was*(1+tol.of(m.name)) + slack; m.cur > limit {
				bad = append(bad, fmt.Sprintf("e21 %s %s: %.0f > limit %.0f (baseline %.0f, +%.0f%% + %.0f slack)",
					c.key(), m.name, m.cur, limit, m.was, tol.of(m.name)*100, slack))
			}
		}
	}
	if matched == 0 {
		bad = append(bad, "no current e21 cell had a baseline entry — empty matrix or a baseline without one?")
	}
	return bad, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

func main() {
	in := flag.String("in", "", "bench output file (default: stdin)")
	e20 := flag.String("e20", "", "E20 codec-matrix JSON to embed in the report")
	e21 := flag.String("e21", "", "E21 transport-matrix JSON to embed in the report and, with -baseline, gate")
	e22 := flag.String("e22", "", "E22 phase-timer-matrix JSON to embed in the report")
	jsonOut := flag.String("json", "", "write the parsed report to this file")
	baseline := flag.String("baseline", "", "compare against this committed report")
	filter := flag.String("filter", "fixed", "substring of benchmark names to gate")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed fractional regression vs baseline (fallback when -tolerance is unset)")
	tolerance := flag.String("tolerance", "", `allowed regression in percent: "20" for all gated metrics, or per-metric "B/op=20,allocs/op=5" (the E21 gate reads "msgs" and "retransmits")`)
	slack := flag.Float64("slack", 64, "absolute slack added to each limit (absorbs noise on near-zero baselines)")
	flag.Parse()

	tol, err := parseTolerance(*tolerance, *maxRegress)
	if err != nil {
		fail(err)
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		src = f
	}
	benches, err := parse(src)
	if err != nil {
		fail(err)
	}
	if len(benches) == 0 {
		fail(fmt.Errorf("no benchmark lines found in input"))
	}
	rep := Report{Benchmarks: benches}
	embed := func(path string) json.RawMessage {
		raw, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		if !json.Valid(raw) {
			fail(fmt.Errorf("%s: not valid JSON", path))
		}
		return json.RawMessage(raw)
	}
	if *e20 != "" {
		rep.E20 = embed(*e20)
	}
	if *e21 != "" {
		rep.E21 = embed(*e21)
	}
	if *e22 != "" {
		rep.E22 = embed(*e22)
	}

	// Compare BEFORE writing: -json and -baseline may be the same path.
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fail(err)
		}
		var ref Report
		if err := json.Unmarshal(raw, &ref); err != nil {
			fail(fmt.Errorf("%s: %v", *baseline, err))
		}
		bad := compare(benches, ref.Benchmarks, *filter, tol, *slack)
		if rep.E21 != nil {
			e21Bad, err := compareE21(rep.E21, ref.E21, tol, *slack)
			if err != nil {
				fail(fmt.Errorf("%s: %v", *baseline, err))
			}
			bad = append(bad, e21Bad...)
		}
		if len(bad) > 0 {
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "REGRESSION:", m)
			}
			os.Exit(1)
		}
		fmt.Printf("benchcheck: %d benchmarks, %q gate passed vs %s\n", len(benches), *filter, *baseline)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("benchcheck: wrote %s (%d benchmarks)\n", *jsonOut, len(benches))
	}
}
