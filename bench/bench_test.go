package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {10, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := beyond(192, 0.9); got != 19 {
		t.Errorf("beyond(192, 0.9) = %d, want 19", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (nearest rank)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Self time is the span minus the part of it its children cover:
	// overlapping children count once, a child is clipped to its parent.
	spans := []span{
		{ID: 0, Name: "op", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 30},
		{ID: 2, Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{ID: 3, Name: "c", Parent: 0, Start: 90, End: 120}, // sticks out of op
		{ID: 4, Name: "a.inner", Parent: 1, Start: 12, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{0: 50, 1: 12, 2: 30, 3: 30, 4: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	// With well-nested spans, as the benchmark records them, the ledger's
	// rows plus its residual are the total of the root spans.
	spans = []span{
		{ID: 0, Name: "query", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "query.submit", Parent: 0, Start: 5, End: 10},
		{ID: 2, Name: "query.wait", Parent: 0, Start: 10, End: 95},
		{ID: 3, Name: "query.run", Parent: 2, Start: 30, End: 90},
		{ID: 4, Name: "solve", Parent: -1, Start: 200, End: 260}, // a root without children is a row
		{ID: 5, Name: "query", Parent: -1, Start: 300, End: 350},
		{ID: 6, Name: "query.wait", Parent: 5, Start: 300, End: 350},
	}
	l := buildLedger(spans)
	rows := map[string]ledgerRow{}
	var sum time.Duration
	for _, r := range l.Rows {
		rows[r.Name] = r
		sum += r.Self
	}
	want := map[string]ledgerRow{
		"query.submit": {"query.submit", 1, 5},
		"query.wait":   {"query.wait", 2, 25 + 50},
		"query.run":    {"query.run", 1, 60},
		"solve":        {"solve", 1, 60},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("ledger rows = %v, want %v", rows, want)
	}
	if l.Total != 210 || l.Residual != 10 || sum+l.Residual != l.Total {
		t.Errorf("total=%d residual=%d rows=%d: want 210, 10, and rows + residual = total", l.Total, l.Residual, sum)
	}
	if got := l.residualShare(); got != 10.0/210 {
		t.Errorf("residual share = %v, want 10/210", got)
	}
}

func TestTracerNilIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", tr.newOp(), -1)
	tr.end(id)
	tr.call("y", 0, id, func() {})
	if got := tr.closed(); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
	live := newTracer()
	open := live.begin("never-ended", 1, -1)
	live.call("done", 1, open, func() {})
	if got := live.closed(); len(got) != 1 || got[0].Name != "done" {
		t.Errorf("closed() = %v, want only the ended span", got)
	}
}

// TestOpenLoopCountsStallFromDueTime injects a stall into the generator: the
// bursts behind it are sent late, and a latency timed from the due time
// includes that wait, while one timed from the send would hide it. The
// thresholds leave 10 ms of slack per step for a loaded test machine.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		period = 20 * time.Millisecond
		stall  = 100 * time.Millisecond
		slack  = 10 * time.Millisecond
		bursts = 9
	)
	fromDue := make([]time.Duration, bursts)
	fromSend := make([]time.Duration, bursts)
	late := openLoop(time.Now(), period, bursts, func(b int, due time.Time) {
		sent := time.Now()
		if b == 1 {
			time.Sleep(stall) // the generator is held up inside burst 1
		}
		answered := time.Now() // the "service" answers at once
		fromDue[b], fromSend[b] = answered.Sub(due), answered.Sub(sent)
	})
	// Burst 1 was due at 20 ms and held the generator until 120 ms; bursts 2
	// and 3 were due at 40 and 60 ms and could not be sent before that.
	for b, want := range map[int]time.Duration{2: 80 * time.Millisecond, 3: 60 * time.Millisecond} {
		if late[b] < want-slack {
			t.Errorf("burst %d lateness = %v, want about %v", b, late[b], want)
		}
		if hidden := fromDue[b] - fromSend[b]; hidden < want-slack {
			t.Errorf("burst %d: timing from the send hides %v of the %v wait the stall imposed", b, hidden, want)
		}
	}
	// The schedule does not shift: the last burst (due at 160 ms) finds the
	// generator caught up, not still a stall behind.
	if late[bursts-1] >= late[3] {
		t.Errorf("last burst late by %v, burst 3 by %v: the schedule drifted", late[bursts-1], late[3])
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, err := makeInputs(8, 7, 8, algoBFS, algoSSSP)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(8, 7, 8, algoBFS, algoSSSP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(a.script, b.script) || !reflect.DeepEqual(a.ref, b.ref) {
		t.Error("the same seed gave different inputs")
	}
	c, err := makeInputs(8, 8, 8, algoBFS)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.pool, c.pool) {
		t.Error("another seed gave the same source pool")
	}
	// Every source does real work, and the script asks for each equally often.
	for i, e := range a.reachEdges {
		if e < float64(len(a.edges))/4 {
			t.Errorf("source %d reaches only %v of %d edges", a.pool[i], e, len(a.edges))
		}
	}
	count := map[int]int{}
	for _, pi := range a.script[:len(a.pool)*5] {
		count[pi]++
	}
	for pi, n := range count {
		if n != 5 {
			t.Errorf("source %d asked for %d times in 5 passes", pi, n)
		}
	}
	if !a.matches(algoBFS, 0, a.ref[algoBFS][0]) || a.matches(algoBFS, 0, a.ref[algoBFS][1]) {
		t.Error("matches does not tell the reference of source 0 from that of source 1")
	}
}

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range c.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, program %+v", i, got, endToEnd[i])
		}
	}
	for i, m := range c.PerLayer {
		if got := (metricDef{m.Name, m.Unit, m.Better, 0}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, program %+v", i, got, perLayer[i])
		}
	}
}

// TestPredictionsCoverContract holds predictions.json — what the fixed keys of
// BENCHMARK.json leave no room for — to the contract: no claim, one entry per
// per-layer metric in order, and every prediction naming an end-to-end metric
// and a workload that exist.
func TestPredictionsCoverContract(t *testing.T) {
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Claim    any
		Demoted  []struct{ Was, Now, Why string }
		PerLayer []struct {
			Name           string
			Moves, Unmoved []string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"claim": null`)) || p.Claim != nil {
		t.Error("the change that defines the benchmark claims no gain: want \"claim\": null")
	}
	known := map[string]bool{}
	for _, m := range endToEnd {
		for _, w := range workloads {
			known[m.Name+"@"+w.name] = true
		}
	}
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.Name] = true
	}
	for _, d := range p.Demoted {
		if !layer[d.Now] || d.Why == "" {
			t.Errorf("demoted %s: %q is not a per-layer metric, or no reason given", d.Was, d.Now)
		}
	}
	if len(p.PerLayer) != len(perLayer) {
		t.Fatalf("predictions.json covers %d per-layer metrics, the program has %d", len(p.PerLayer), len(perLayer))
	}
	for i, e := range p.PerLayer {
		if e.Name != perLayer[i].Name {
			t.Errorf("per_layer[%d]: predictions.json %q, program %q", i, e.Name, perLayer[i].Name)
		}
		for _, target := range append(e.Moves, e.Unmoved...) {
			if !known[target] {
				t.Errorf("%s predicts %q, which is not an end-to-end metric @ workload", e.Name, target)
			}
		}
	}
}

// TestQuickSmoke runs every workload end to end, untraced and traced, on small
// graphs for a fraction of a second each, and checks the output contract: each
// metric of the section is printed exactly once per workload with its unit,
// answers are verified, the JSON line carries exactly those metrics, and the
// traced run prints a ledger per workload. It starts cmd/declpat-serve and
// keeps both cores busy for about five seconds.
func TestQuickSmoke(t *testing.T) {
	c := readContract(t)
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		cfg := config{seed: 3, seconds: 0.4, trace: traced, quick: true, outDir: t.TempDir()}
		if err := run(cfg, "", 1, &out); err != nil {
			t.Fatalf("trace=%v: %v\n%s", traced, err, out.String())
		}
		units := map[string]string{}
		for _, m := range c.EndToEnd {
			if !traced {
				units[m.Name] = m.Unit
			}
		}
		for _, m := range c.PerLayer {
			if traced {
				units[m.Name] = m.Unit
			}
		}
		printed := map[string]int{}
		objects := 0
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			if strings.HasPrefix(line, "{") {
				var obj struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&obj); err != nil {
					t.Fatalf("result line: %v\n%s", err, line)
				}
				if obj.Correct == nil || !*obj.Correct || obj.Attempted == nil || *obj.Attempted < 1 || obj.Failed == nil {
					t.Errorf("trace=%v: result line reports a wrong or empty run: %s", traced, line)
				}
				if len(obj.Metrics) != len(units) {
					t.Errorf("trace=%v: result line has %d metrics, the contract %d", traced, len(obj.Metrics), len(units))
				}
				for name, m := range obj.Metrics {
					if m.Unit != units[name] || m.Value == nil {
						t.Errorf("trace=%v: %s reported as %+v, contract unit %q", traced, name, m, units[name])
					}
				}
				objects++
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 4 && units[f[1]] != "" {
				if f[3] != units[f[1]] {
					t.Errorf("%s printed with unit %q, contract says %q", f[1], f[3], units[f[1]])
				}
				printed[f[0]+" "+f[1]]++
			}
		}
		if objects != len(workloads) {
			t.Errorf("trace=%v: %d result lines for %d workloads", traced, objects, len(workloads))
		}
		for _, w := range workloads {
			for name := range units {
				if n := printed[w.name+" "+name]; n != 1 {
					t.Errorf("trace=%v: %s %s printed %d times", traced, w.name, name, n)
				}
			}
		}
		if traced && strings.Count(out.String(), "ledger ") != len(workloads) {
			t.Errorf("traced run printed %d ledgers for %d workloads", strings.Count(out.String(), "ledger "), len(workloads))
		}
	}
}
