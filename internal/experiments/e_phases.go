package experiments

import (
	"fmt"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/harness"
)

// ObsRecord is one cell of the E22 phase-timer overhead matrix: an
// algorithm run with the telemetry plane off or on, its wall time, and —
// when timing is on — the per-phase totals the timers recorded. The
// machine-readable form (`experiments -only E22 -json`) is embedded in
// BENCH_obs.json so CI diffs carry the end-to-end overhead next to the
// zero-allocation microbenchmark gate.
type ObsRecord struct {
	Algo        string           `json:"algo"`
	Timing      bool             `json:"timing"`
	Msgs        int64            `json:"msgs"`
	WallNs      int64            `json:"wall_ns"`   // min over reps
	MedianNs    int64            `json:"median_ns"` // median over reps
	OverheadPct float64          `json:"overhead_pct"`
	PhaseNs     map[string]int64 `json:"phase_ns,omitempty"`
	PhaseSpans  map[string]int64 `json:"phase_spans,omitempty"`
}

// e22Algos: the acceptance set — the three kernels whose phase timers must
// cost ≤5% with timing on and nothing with it off.
var e22Algos = []string{"bfs", "sssp", "cc"}

// E22ObsRecords runs the BFS/SSSP/CC x {timing off, timing on} matrix.
// Repetitions are interleaved across configurations (like E17) so machine
// drift cannot bias one column, and the overhead is computed min-vs-min.
func E22ObsRecords(sc Scale) []ObsRecord {
	n, edges := workload(sc)
	var recs []ObsRecord
	for _, algo := range e22Algos {
		gopts := defaultGOpts()
		if algo == "cc" {
			gopts.Symmetrize = true
		}
		var us [2]*am.Universe
		var times [2][]time.Duration
		iter := func(timing bool) time.Duration {
			opts := []am.Option{am.WithThreads(2)}
			if timing {
				opts = append(opts, am.WithTiming())
			}
			return harness.Time(func() {
				e := newEnv(am.New(4, opts...), n, edges, gopts, PaperPlan())
				var body func(r *am.Rank)
				switch algo {
				case "bfs":
					b := algorithms.NewBFS(e.eng)
					body = func(r *am.Rank) { b.Run(r, 0) }
				case "sssp":
					s := algorithms.NewSSSP(e.eng)
					body = func(r *am.Rank) { s.Run(r, 0) }
				case "cc":
					c := algorithms.NewCC(e.eng, e.lm)
					body = func(r *am.Rank) { c.Run(r) }
				}
				e.u.Run(body)
				if timing {
					us[1] = e.u
				} else {
					us[0] = e.u
				}
			})
		}
		const reps = 5
		iter(false) // warmup both paths outside the measurement
		iter(true)
		for rep := 0; rep < reps; rep++ {
			times[0] = append(times[0], iter(false))
			times[1] = append(times[1], iter(true))
		}
		var mins [2]time.Duration
		var meds [2]time.Duration
		for i := range times {
			ds := times[i]
			for a := 1; a < len(ds); a++ {
				for b := a; b > 0 && ds[b] < ds[b-1]; b-- {
					ds[b], ds[b-1] = ds[b-1], ds[b]
				}
			}
			mins[i], meds[i] = ds[0], ds[len(ds)/2]
		}
		for i, timing := range []bool{false, true} {
			rec := ObsRecord{
				Algo: algo, Timing: timing,
				Msgs:   us[i].Stats.Snapshot().MsgsSent,
				WallNs: mins[i].Nanoseconds(), MedianNs: meds[i].Nanoseconds(),
			}
			if timing {
				rec.OverheadPct = (float64(mins[1])/float64(mins[0]) - 1) * 100
				rec.PhaseNs = map[string]int64{}
				rec.PhaseSpans = map[string]int64{}
				for name, h := range us[1].Phases() {
					rec.PhaseNs[name] = h.Sum
					rec.PhaseSpans[name] = h.Count
				}
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// E22PhaseTimers renders the matrix as the suite table. The headline claim:
// timing-on overhead stays within single-digit percent on every kernel
// (E22's committed baseline records ≤5%), and with timing off the scopes
// compile to a nil check — the off column is the same program as before the
// telemetry plane existed.
func E22PhaseTimers(sc Scale) []*harness.Table {
	t := harness.NewTable("E22: phase-timer overhead (BFS/SSSP/CC, 4 ranks x 2 threads, min of 5 interleaved reps)",
		"algorithm", "timing", "messages", "min-time", "median", "overhead", "kernel-ns", "spans")
	for _, r := range E22ObsRecords(sc) {
		timing, over := "off", "-"
		kernel, spans := "-", "-"
		if r.Timing {
			timing = "on"
			over = fmt.Sprintf("%+.1f%%", r.OverheadPct)
			kernel = fmt.Sprint(r.PhaseNs["kernel"])
			var total int64
			for _, n := range r.PhaseSpans {
				total += n
			}
			spans = fmt.Sprint(total)
		}
		t.Add(r.Algo, timing, r.Msgs,
			time.Duration(r.WallNs).Round(time.Microsecond),
			time.Duration(r.MedianNs).Round(time.Microsecond),
			over, kernel, spans)
	}
	return []*harness.Table{t}
}
