package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of the contract in BENCHMARK.json;
// TestContractMatchesProgram in bench_test.go holds the two lists equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, untraced. The latency is that of the workload's primary
// verified operation: a solve on oneshot-*, an SSSP query on serve-* (timed
// from its due time under the open loop, from the send under the closed one),
// as a multiple of the sequential solve of the same algorithm on the same
// graph in the same run (inputs.xSeq says why). The milliseconds behind it
// are the per-layer diag.latency_ms_*, diag.throughput_ops and
// diag.seq_ms_p50.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_x_seq_p50", "ratio", "lower", 0.20},
	{"latency_x_seq_p90", "ratio", "lower", 0.25},
	{"slo_ok_ratio", "share", "higher", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers (layer = module name before the
// first dot), reported by the traced run. README.md states which end-to-end
// metric on which workload each should move.
var perLayer = []metricDef{
	{"gen.rmat_s", "s", "lower", 0},
	{"distgraph.build_s", "s", "lower", 0},
	{"distgraph.bytes_per_edge", "B", "lower", 0},
	{"pattern.bind_ms", "ms", "lower", 0},
	{"pattern.ns_per_item", "ns", "lower", 0},
	{"pattern.msgs_per_edge", "ratio", "lower", 0},
	{"pattern.vs_hand_ratio", "ratio", "lower", 0},
	{"strategy.useful_ratio", "share", "higher", 0},
	{"strategy.delta_solve_ms_p50", "ms", "lower", 0},
	{"strategy.delta_epochs", "count", "lower", 0},
	{"algorithms.seq_ratio", "ratio", "lower", 0},
	{"algorithms.mteps", "1/us", "higher", 0},
	{"algorithms.solve_ms_scale16", "ms", "lower", 0},
	{"algorithms.pagerank_round_ms", "ms", "lower", 0},
	{"pmap.min_ns_op", "ns", "lower", 0},
	{"pmap.reset_us", "us", "lower", 0},
	{"pmap.gather_us", "us", "lower", 0},
	{"am.msgs", "count", "lower", 0},
	{"am.envelopes", "count", "lower", 0},
	{"am.msgs_per_envelope", "ratio", "higher", 0},
	{"am.wire_bytes_per_msg", "B", "lower", 0},
	{"am.retransmits", "count", "lower", 0},
	{"am.retransmit_ratio", "share", "lower", 0},
	{"am.allocs_per_msg", "ratio", "lower", 0},
	{"am.alloc_bytes_per_msg", "B", "lower", 0},
	{"am.ns_per_msg", "ns", "lower", 0},
	{"am.handler_us_p50", "us", "lower", 0},
	{"am.ack_rtt_us_p50", "us", "lower", 0},
	{"am.ack_rtt_us_p90", "us", "lower", 0},
	{"am.phase.kernel_ms", "ms", "lower", 0},
	{"am.phase.barrier_ms", "ms", "lower", 0},
	{"am.phase.collect_ms", "ms", "lower", 0},
	{"am.barrier_share", "share", "lower", 0},
	{"am.epoch_floor_us", "us", "lower", 0},
	{"am.barrier_us", "us", "lower", 0},
	{"am.connect_ms", "ms", "lower", 0},
	{"am.run_floor_ms", "ms", "lower", 0},
	{"am.pingstorm_ns_per_msg.chan", "ns", "lower", 0},
	{"am.pingstorm_ns_per_msg.chanwire", "ns", "lower", 0},
	{"am.pingstorm_ns_per_msg.unix", "ns", "lower", 0},
	{"am.rank_overhead_ratio", "ratio", "lower", 0},
	{"am.instance_spread", "ratio", "lower", 0},
	{"am.link_deaths", "count", "lower", 0},
	{"am.decode_errors", "count", "lower", 0},
	{"am.query_mismatches", "count", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
	{"obs.metrics_write_ms", "ms", "lower", 0},
	{"query.submit_us_p50", "us", "lower", 0},
	{"query.queue_wait_ms_p50", "ms", "lower", 0},
	{"query.queue_wait_ms_p90", "ms", "lower", 0},
	{"query.run_ms_p50", "ms", "lower", 0},
	{"query.notify_us_p50", "us", "lower", 0},
	{"query.batch_width_mean", "count", "higher", 0},
	{"query.batch_width_max", "count", "higher", 0},
	{"query.fusion_gain", "ratio", "higher", 0},
	{"query.solo_overhead_ratio", "ratio", "lower", 0},
	{"query.epochs_per_query", "ratio", "lower", 0},
	{"query.value_us_p50", "us", "lower", 0},
	{"query.pagerank_ms_p50", "ms", "lower", 0},
	{"query.pagerank_rounds", "count", "lower", 0},
	{"query.rejected", "count", "lower", 0},
	{"query.expired", "count", "lower", 0},
	{"serve.start_s", "s", "lower", 0},
	{"serve.post_ms_p50", "ms", "lower", 0},
	{"serve.http_overhead_ms_p50", "ms", "lower", 0},
	{"serve.http_overhead_ms_p90", "ms", "lower", 0},
	{"serve.value_http_overhead_us", "us", "lower", 0},
	{"serve.scrape_ms", "ms", "lower", 0},
	{"loadgen.late_ms_p90", "ms", "lower", 0},
	{"loadgen.bursts_sent", "count", "higher", 0},
	{"loadgen.ledger_residual", "share", "lower", 0},
	{"loadgen.steal_share", "share", "lower", 0},
	{"diag.latency_ms_p50", "ms", "lower", 0},
	{"diag.latency_ms_p90", "ms", "lower", 0},
	{"diag.throughput_ops", "1/s", "higher", 0},
	{"diag.seq_ms_p50", "ms", "lower", 0},
	{"diag.bfs_latency_ms_p50", "ms", "lower", 0},
	{"diag.lookup_us_p50", "us", "lower", 0},
	{"diag.lookup_us_p90", "us", "lower", 0},
	{"diag.failed_ratio", "share", "lower", 0},
}

// traceShare is the part of a traced invocation's seconds the workload itself
// gets; the rest is left for the substrate probes that follow it.
const traceShare = 0.7

// measurement holds the observations of one workload invocation. Untraced,
// every instance records into plain. Traced, instances alternate: even ones
// run plain, odd ones run with benchmark-side spans and the program's timing
// telemetry on, so the two medians give the tracing overhead from one run.
type measurement struct {
	cfg         config
	cpu0        cpuTicks // at the start, for loadgen.steal_share
	perInstance time.Duration
	plain       *recorder
	traced      *recorder
	tracer      *tracer
}

func newRun(cfg config, instances int) *measurement {
	m := &measurement{cfg: cfg, cpu0: readCPUTicks(), plain: newRecorder()}
	secs := cfg.seconds
	if cfg.trace {
		secs *= traceShare
		m.traced = newRecorder()
		m.tracer = newTracer()
	}
	m.perInstance = time.Duration(secs / float64(instances) * float64(time.Second))
	return m
}

// instance returns where instance i records, and its tracer (nil = untraced).
func (m *measurement) instance(i int) (*recorder, *tracer) {
	if m.cfg.trace && i%2 == 1 {
		return m.traced, m.tracer
	}
	return m.plain, nil
}

// layerRecorder is the recorder the per-layer metrics come from.
func (m *measurement) layerRecorder() *recorder {
	if m.cfg.trace {
		return m.traced
	}
	return m.plain
}

// finish computes the end-to-end metrics (from the untraced instances only)
// and the per-layer metrics every workload shares.
func (m *measurement) finish(workload string) *result {
	e, pl := m.plain, m.layerRecorder()
	res := &result{workload: workload, metrics: map[string]float64{}, samples: map[string]int{}, tracer: m.tracer}
	for _, r := range []*recorder{m.plain, m.traced} {
		if r != nil {
			res.attempted += r.attempted
			res.failed += r.failed
			res.wrong += r.wrong
		}
	}
	lat, x := e.get("latency_ms"), e.get("latency_x_seq")
	res.set("setup_s", median(e.get("setup_s")))
	res.samples["setup_s"] = len(e.get("setup_s"))
	res.set("latency_x_seq_p50", quantile(x, 0.5))
	res.set("latency_x_seq_p90", quantile(x, 0.9))
	res.samples["latency_x_seq_p50"], res.samples["latency_x_seq_p90"] = len(x), len(x)
	res.set("diag.latency_ms_p50", quantile(lat, 0.5))
	res.set("diag.latency_ms_p90", quantile(lat, 0.9))
	res.set("diag.throughput_ops", ratio(e.total("verified"), e.total("measured_s")))
	res.set("diag.seq_ms_p50", median(e.get("seq_ms")))
	res.set("slo_ok_ratio", ratio(e.total("slo_ok"), float64(e.attempted)))
	// One peak per instance (the high-water mark is reset before each, or is
	// that of a fresh child): the median instance's peak.
	res.set("rss_peak_mb", median(e.get("rss_mb")))
	res.samples["rss_peak_mb"] = len(e.get("rss_mb"))

	res.set("gen.rmat_s", median(pl.get("gen.rmat_s")))
	res.set("distgraph.build_s", median(pl.get("distgraph.build_s")))
	res.set("distgraph.bytes_per_edge", median(pl.get("distgraph.bytes_per_edge")))
	res.set("pattern.bind_ms", median(pl.get("pattern.bind_ms")))
	res.set("am.connect_ms", median(pl.get("am.connect_ms")))
	res.set("diag.failed_ratio", ratio(float64(res.failed), float64(res.attempted)))
	cpu := readCPUTicks()
	res.set("loadgen.steal_share", ratio(cpu.steal-m.cpu0.steal, cpu.total-m.cpu0.total))
	var instMedians []float64
	for _, xs := range pl.withPrefix(instPrefix) {
		instMedians = append(instMedians, median(xs))
	}
	if len(instMedians) > 1 {
		res.set("am.instance_spread", ratio(quantile(instMedians, 1)-quantile(instMedians, 0), median(instMedians)))
	}
	if m.cfg.trace {
		res.set("obs.trace_overhead_ratio", ratio(pl.p("latency_ms", 0.5), e.p("latency_ms", 0.5)))
		res.ledger = buildLedger(m.tracer.closed())
		res.set("loadgen.ledger_residual", res.ledger.residualShare())
	}
	return res
}

// instSeries names the series that keeps instance i's primary latencies apart,
// for am.instance_spread.
const instPrefix = "inst/"

func instSeries(i int) string { return fmt.Sprintf("%s%d", instPrefix, i) }

// cpuTicks is the aggregate cpu line of /proc/stat.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads how many clock ticks the machine's processors have spent
// in all, and how many of those the hypervisor gave to someone else while this
// guest wanted to run (steal). A run taken under more than a few percent of
// steal measures the host: wall-clock times swell, and the sequential
// yardstick, which is pure computation, swells more than the operations it is
// meant to scale (measured at ~50 % steal: 2.5x against 1.3x). Zero where
// /proc/stat is missing.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var c cpuTicks
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64) // the kernel writes decimal integers
		c.total += x
		if i == 7 {
			c.steal = x
		}
	}
	return c
}

// resetPeakRSS starts a fresh high-water mark for this process, so that an
// instance's peak is its own and not that of a predecessor (an earlier
// instance, an earlier workload of an all-workload run, pass 1 of -repeat).
// The heap's free pages go back to the kernel first; otherwise the mark would
// start from the garbage the predecessor left. Where the kernel refuses the
// write, VmHWM stays the process-lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set of a process ("self" or a pid), from the
// VmHWM line of /proc/<pid>/status. getrusage would not do: ru_maxrss survives
// exec, so it starts from the peak of whatever forked the process — the go
// tool for this benchmark, this benchmark for its child.
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
