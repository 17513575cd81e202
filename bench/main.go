// Command bench prices the whole path of this repository in one command: four
// workloads, five end-to-end metrics that every workload reports, and — in a
// separate traced run — a per-layer ledger. Every answer the program gives is
// checked against a sequential reference. See README.md in this directory.
//
//	go run -C bench . --workload oneshot-chan-sssp --seed 1 --seconds 24 --trace 0
//	go run -C bench . -quick         # all four workloads, ~2 s each
//	go run -C bench . -repeat 2      # the suite twice, with the differences
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics (BENCHMARK.json at the repository root lists
// the metric names). The program runs in this directory (`go run -C bench`
// from the repository root): the serve-http workload builds
// declpat/cmd/declpat-serve, and outputs go to out/ here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// pool is the number of sources an instance draws from. Solve time differs by
// a factor of two between sources of one graph, so an instance walks a pool
// about as large as the number of operations it has time for, and a run's
// median is that of its graphs, not of a lucky handful of sources.
func (c config) pool() int {
	if c.quick {
		return 16
	}
	return 32
}

// instances is the number of fresh instances a workload pools its samples
// over: n, or a handful in a smoke run.
func (c config) instances(n int) int {
	if c.quick {
		return min(n, 4)
	}
	return n
}

// workloads maps each workload name to its runner, in reporting order.
var workloads = []struct {
	name string
	run  func(config) (*result, error)
}{
	{oneshotChanSSSP.name, func(c config) (*result, error) { return runOneshot(oneshotChanSSSP, c) }},
	{oneshotUnixBFS.name, func(c config) (*result, error) { return runOneshot(oneshotUnixBFS, c) }},
	{serveBurstName, runBurst},
	{serveHTTPName, runHTTP},
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 1, "drives the graph, the source pool and the request script")
	seconds := flag.Float64("seconds", 0, "measuring time per workload (default 24, 2 with -quick)")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and the ledger")
	quick := flag.Bool("quick", false, "smoke run: small graphs, ~2 s per workload")
	repeat := flag.Int("repeat", 1, "run the selection this many times and compare the end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: "out"}
	if cfg.seconds <= 0 {
		cfg.seconds = 24
		if cfg.quick {
			cfg.seconds = 2
		}
	}
	if err := run(cfg, *workload, *repeat, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the selected workloads repeat times, printing each result as it
// completes and writing out/result.json at the end. A workload that
// produced no samples is the only measurement outcome that is an error.
func run(cfg config, only string, repeat int, out io.Writer) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var passes [][]*result
	for p := 0; p < repeat; p++ {
		var pass []*result
		for _, w := range workloads {
			if only != "" && only != w.name {
				continue
			}
			res, err := w.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.samples["latency_x_seq_p50"] == 0 {
				return fmt.Errorf("%s: no samples", w.name)
			}
			if cfg.trace {
				if err := res.tracer.writeJSONL(filepath.Join(cfg.outDir, w.name+".trace.jsonl")); err != nil {
					return err
				}
				res.ledger.print(out, w.name)
				res.printPhases(out)
			}
			res.print(out, cfg.trace)
			pass = append(pass, res)
		}
		if len(pass) == 0 {
			return fmt.Errorf("unknown workload %q", only)
		}
		passes = append(passes, pass)
	}
	if repeat > 1 {
		printRepeat(out, passes)
	}
	return writeResultFile(cfg, passes[len(passes)-1])
}

// result is one workload's outcome: the operation tally and every metric the
// workload could compute, end-to-end and per-layer alike.
type result struct {
	workload  string
	attempted int
	failed    int
	wrong     int
	metrics   map[string]float64
	// samples is the number of observations behind a metric, where it is a
	// percentile.
	samples map[string]int
	tracer  *tracer
	ledger  ledger
	// phaseBaseMs is the mean duration of the span the program's phase timers
	// break down (a solve), where the workload has such a span.
	phaseBaseMs float64
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// reported returns the metrics of one contract section in order, each with
// its unit. A per-layer metric of a layer this workload does not exercise
// reads 0.
func (r *result) reported(traced bool) []reportedMetric {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make([]reportedMetric, len(defs))
	for i, d := range defs {
		out[i] = reportedMetric{d.Name, r.metrics[d.Name], d.Unit, r.samples[d.Name]}
	}
	return out
}

type reportedMetric struct {
	name  string
	value float64
	unit  string
	n     int
}

// printPhases continues the ledger below the benchmark's own spans, with the
// program's phase timers: what a rank spent per operation in each phase, and —
// where one span encloses exactly that work — their share of it.
func (r *result) printPhases(out io.Writer) {
	k, b, c := r.metrics["am.phase.kernel_ms"], r.metrics["am.phase.barrier_ms"], r.metrics["am.phase.collect_ms"]
	if k+b+c == 0 {
		fmt.Fprintf(out, "  phases: the program exports no phase timers on this path\n")
		return
	}
	fmt.Fprintf(out, "  phases per rank per operation (program telemetry): kernel=%.3f ms barrier=%.3f ms collect=%.3f ms", k, b, c)
	if r.phaseBaseMs > 0 {
		// The program's phases overlap (a barrier wait inside an epoch is
		// also kernel time), so their sum may pass 100 %.
		fmt.Fprintf(out, "; together %.1f %% of the %.3f ms mean solve span", 100*(k+b+c)/r.phaseBaseMs, r.phaseBaseMs)
	}
	fmt.Fprintln(out)
}

// print writes one `workload metric value unit` line per metric and then the
// JSON object the driver reads.
func (r *result) print(out io.Writer, traced bool) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.reported(traced) {
		note := ""
		if m.n > 0 {
			note = fmt.Sprintf(" n=%d", m.n)
			if q := percentileOf(m.name); q > highestPercentile(m.n) {
				note += " (fewer than 10 samples beyond it)"
			}
		}
		fmt.Fprintf(out, "%s %s %v %s%s\n", r.workload, m.name, m.value, m.unit, note)
		obj.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	if !traced {
		// For the reader, not the driver (per-layer metrics: the JSON line of
		// a traced run carries them).
		for _, d := range perLayer {
			if alsoUntraced[d.Name] {
				fmt.Fprintf(out, "%s %s %v %s\n", r.workload, d.Name, r.metrics[d.Name], d.Unit)
			}
		}
	}
	line, _ := json.Marshal(obj) // plain numbers and strings: cannot fail
	fmt.Fprintf(out, "%s\n", line)
}

// alsoUntraced are the per-layer metrics an untraced run prints and records
// beside the gated ones: the wall-clock figures the end-to-end ratios are made
// of, and the hypervisor's steal, which says whether to trust any of them.
var alsoUntraced = map[string]bool{"diag.latency_ms_p50": true, "diag.latency_ms_p90": true, "diag.throughput_ops": true, "diag.seq_ms_p50": true, "loadgen.steal_share": true}

// percentileOf is the quantile a metric name ends in (_p50, _p90), 0 if none.
func percentileOf(name string) float64 {
	switch {
	case strings.HasSuffix(name, "_p50"):
		return 0.5
	case strings.HasSuffix(name, "_p90"):
		return 0.9
	}
	return 0
}

// printRepeat compares the end-to-end metrics of the first and the last pass:
// both values, their relative difference and the bound, flagged unresolved
// where the difference exceeds the bound.
func printRepeat(out io.Writer, passes [][]*result) {
	first, last := passes[0], passes[len(passes)-1]
	fmt.Fprintf(out, "repeat: pass 1 against pass %d of the same code\n", len(passes))
	for i, a := range first {
		b := last[i]
		for _, d := range endToEnd {
			va, vb := a.metrics[d.Name], b.metrics[d.Name]
			diff := ratio(vb-va, va)
			flag := "ok"
			if diff > d.Bound || diff < -d.Bound {
				flag = "unresolved"
			}
			fmt.Fprintf(out, "repeat %s %s %v %v %s diff=%+.3f bound=%.2f %s\n", a.workload, d.Name, va, vb, d.Unit, diff, d.Bound, flag)
		}
	}
}

// writeResultFile records the last pass with the machine it ran on.
func writeResultFile(cfg config, pass []*result) error {
	type workloadJSON struct {
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Correct   bool               `json:"correct"`
		Samples   map[string]int     `json:"samples"`
		Metrics   map[string]float64 `json:"metrics"`
	}
	file := struct {
		Seed      uint64                  `json:"seed"`
		Seconds   float64                 `json:"seconds"`
		Trace     bool                    `json:"trace"`
		Quick     bool                    `json:"quick"`
		When      string                  `json:"when"`
		Go        string                  `json:"go"`
		OS        string                  `json:"os"`
		NProc     int                     `json:"nproc"`
		Workloads map[string]workloadJSON `json:"workloads"`
	}{cfg.seed, cfg.seconds, cfg.trace, cfg.quick, time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, runtime.NumCPU(), map[string]workloadJSON{}}
	for _, r := range pass {
		m := map[string]float64{}
		for _, rm := range r.reported(cfg.trace) {
			m[rm.name] = rm.value
		}
		for name := range alsoUntraced { // per-layer, so a traced run has them already
			m[name] = r.metrics[name]
		}
		file.Workloads[r.workload] = workloadJSON{r.attempted, r.failed, r.wrong == 0, r.samples, m}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(data, '\n'), 0o644)
}
