// Command benchcheck turns `go test -bench -benchmem` output into a
// machine-readable JSON report and gates CI on allocation/size regressions.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkCodec' -benchmem ./internal/am/ > bench.txt
//	experiments -scale 10 -only E20 -json e20.json
//	benchcheck -in bench.txt [-matrix e20.json] [-json BENCH_codec.json] \
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
// allocs/op=5") set per-metric budgets (unlisted metrics keep the bare
// number, 20 if the spec has none).
//
// -matrix reads the record file `experiments -json` writes, an object keyed
// by lower-case experiment id ({"e20": […], "e21": […], "e22": […]}: the
// E20 codec, E21 transport and E22 phase-timer matrices), into the report,
// so the committed BENCH_*.json carries both the microbenchmark baseline and
// the end-to-end table.
//
// With -baseline the E20 and E21 matrices are gated on correctness: a cell
// that reads wrong != 0 fails the run (E22's records carry no such column).
// An E21 matrix is gated further,
// cell by (algo, detector, transport) cell: a cell the baseline also has may
// not exceed the baseline's msgs or retransmits (both lower-is-better) by more
// than -tolerance's "msgs" and "retransmits" budgets plus -slack. Both counts
// drift with scheduling in multi-threaded runs, so the budgets are wide: the
// gate is for a change that starts mailing what it used not to, not for noise.
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

// defaultTolerance is the allowed regression, in percent, of a gated metric
// the -tolerance spec gives no budget.
const defaultTolerance = 20

// parseTolerance reads the -tolerance spec: a bare percent ("20") sets the
// default for every gated metric; metric=percent entries ("B/op=20,
// allocs/op=5") set per-metric budgets. A spec without a bare entry keeps
// defaultTolerance for the metrics it does not list.
func parseTolerance(spec string) (tolerances, error) {
	t := tolerances{def: defaultTolerance / 100.0, byKey: map[string]float64{}}
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

// wrongCells gates an embedded matrix on correctness: every cell that reads
// wrong != 0 is a violation, named by whichever of its algo, detector, codec
// and transport fields it has.
func wrongCells(id string, matrix json.RawMessage) ([]string, error) {
	var cells []map[string]any
	if err := json.Unmarshal(matrix, &cells); err != nil {
		return nil, fmt.Errorf("current %s matrix: %v", id, err)
	}
	var bad []string
	for _, c := range cells {
		if w, _ := c["wrong"].(float64); w != 0 {
			var key []string
			for _, f := range []string{"algo", "detector", "codec", "transport"} {
				if s, ok := c[f].(string); ok {
					key = append(key, s)
				}
			}
			bad = append(bad, fmt.Sprintf("%s %s: wrong = %v, want 0", id, strings.Join(key, "/"), w))
		}
	}
	return bad, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}

// readInto reads the JSON file at path into rep: a committed report, or the
// record file `experiments -json` writes, whose e20/e21/e22 keys fill those
// fields and leave rep.Benchmarks as it is.
func readInto(rep *Report, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, rep); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

func main() {
	in := flag.String("in", "", "bench output file (default: stdin)")
	matrix := flag.String("matrix", "", "record file written by experiments -json to embed in the report (with -baseline every E20 and E21 cell must read wrong 0, and E21's counts are gated)")
	jsonOut := flag.String("json", "", "write the parsed report to this file")
	baseline := flag.String("baseline", "", "compare against this committed report")
	filter := flag.String("filter", "fixed", "substring of benchmark names to gate")
	tolerance := flag.String("tolerance", fmt.Sprint(defaultTolerance), `allowed regression in percent: "20" for all gated metrics, or per-metric "B/op=20,allocs/op=5" (the E21 gate reads "msgs" and "retransmits")`)
	slack := flag.Float64("slack", 64, "absolute slack added to each limit (absorbs noise on near-zero baselines)")
	flag.Parse()

	tol, err := parseTolerance(*tolerance)
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
	if *matrix != "" {
		if err := readInto(&rep, *matrix); err != nil {
			fail(err)
		}
	}

	// Compare BEFORE writing: -json and -baseline may be the same path.
	if *baseline != "" {
		var ref Report
		if err := readInto(&ref, *baseline); err != nil {
			fail(err)
		}
		bad := compare(benches, ref.Benchmarks, *filter, tol, *slack)
		for _, m := range []struct {
			id     string
			matrix json.RawMessage
		}{{"e20", rep.E20}, {"e21", rep.E21}} {
			if m.matrix == nil {
				continue
			}
			wrong, err := wrongCells(m.id, m.matrix)
			if err != nil {
				fail(err)
			}
			bad = append(bad, wrong...)
		}
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
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("benchcheck: wrote %s (%d benchmarks)\n", *jsonOut, len(benches))
	}
}
