package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: declpat/internal/am
BenchmarkCodecEncode/fixed-8   200   5690 ns/op   598.0 wire_B   9 B/op   0 allocs/op
BenchmarkCodecEncode/gob-8     200  17777 ns/op  1731 wire_B  8081 B/op  89 allocs/op
PASS
ok  	declpat/internal/am	0.217s
`

func TestParse(t *testing.T) {
	bs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(bs))
	}
	b := bs[0]
	if b.Name != "BenchmarkCodecEncode/fixed" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", b.Name)
	}
	if b.Iters != 200 || b.Metrics["B/op"] != 9 || b.Metrics["wire_B"] != 598 || b.Metrics["allocs/op"] != 0 {
		t.Fatalf("bad parse: %+v", b)
	}
}

func TestCompare(t *testing.T) {
	tol := tolerances{def: 0.20, byKey: map[string]float64{}}
	base := []Benchmark{{Name: "BenchmarkCodecEncode/fixed",
		Metrics: map[string]float64{"B/op": 100, "allocs/op": 0, "wire_B": 600}}}
	ok := []Benchmark{{Name: "BenchmarkCodecEncode/fixed",
		Metrics: map[string]float64{"B/op": 110, "allocs/op": 1, "wire_B": 600}}}
	if bad := compare(ok, base, "fixed", tol, 64); len(bad) != 0 {
		t.Fatalf("within-limit run flagged: %v", bad)
	}
	regressed := []Benchmark{{Name: "BenchmarkCodecEncode/fixed",
		Metrics: map[string]float64{"B/op": 100, "allocs/op": 0, "wire_B": 900}}}
	if bad := compare(regressed, base, "fixed", tol, 64); len(bad) != 1 {
		t.Fatalf("wire_B regression not flagged: %v", bad)
	}
	// A filter that matches nothing in the baseline must fail loudly, not
	// silently pass.
	if bad := compare(ok, nil, "fixed", tol, 64); len(bad) == 0 {
		t.Fatal("empty baseline passed silently")
	}
}

func TestParseTolerance(t *testing.T) {
	// Unset spec falls back to -max-regress.
	tol, err := parseTolerance("", 0.20)
	if err != nil || tol.of("B/op") != 0.20 {
		t.Fatalf("fallback: tol=%v err=%v", tol, err)
	}
	// A bare percent applies to every metric.
	tol, err = parseTolerance("50", 0.20)
	if err != nil || tol.of("B/op") != 0.50 || tol.of("wire_B") != 0.50 {
		t.Fatalf("bare percent: tol=%+v err=%v", tol, err)
	}
	// Per-metric entries override the default; unlisted metrics keep it.
	tol, err = parseTolerance("B/op=20, allocs/op=5", 0.10)
	if err != nil || tol.of("B/op") != 0.20 || tol.of("allocs/op") != 0.05 || tol.of("wire_B") != 0.10 {
		t.Fatalf("per-metric: tol=%+v err=%v", tol, err)
	}
	// Mixed: bare default plus a per-metric budget.
	tol, err = parseTolerance("30,wire_B=10", 0.20)
	if err != nil || tol.of("B/op") != 0.30 || tol.of("wire_B") != 0.10 {
		t.Fatalf("mixed: tol=%+v err=%v", tol, err)
	}
	if _, err = parseTolerance("B/op=lots", 0.20); err == nil {
		t.Fatal("malformed percent accepted")
	}
	if _, err = parseTolerance("-5", 0.20); err == nil {
		t.Fatal("negative percent accepted")
	}

	// A per-metric tolerance gates exactly its metric.
	base := []Benchmark{{Name: "BenchmarkX/fixed", Metrics: map[string]float64{"B/op": 1000, "wire_B": 1000}}}
	cur := []Benchmark{{Name: "BenchmarkX/fixed", Metrics: map[string]float64{"B/op": 1200, "wire_B": 1200}}}
	tight, _ := parseTolerance("B/op=30,wire_B=5", 0.20)
	bad := compare(cur, base, "fixed", tight, 0)
	if len(bad) != 1 || !strings.Contains(bad[0], "wire_B") {
		t.Fatalf("per-metric gate: %v", bad)
	}
}

func TestCompareE21(t *testing.T) {
	tol, err := parseTolerance("25,msgs=10,retransmits=100", 0.20)
	if err != nil {
		t.Fatal(err)
	}
	base := []byte(`[
		{"algo":"bfs","detector":"atomic","transport":"unix","msgs":5000,"retransmits":3,"wrong":0},
		{"algo":"cc","detector":"4ctr","transport":"tcp","msgs":16000,"retransmits":900,"wrong":0}]`)
	check := func(name, cur string, want int) {
		t.Helper()
		bad, err := compareE21([]byte(cur), base, tol, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bad) != want {
			t.Fatalf("%s: %d violations, want %d: %v", name, len(bad), want, bad)
		}
	}
	// Within budget: msgs +10% + 64, retransmits +100% + 64; lower is always fine;
	// a cell the baseline lacks is gated on wrong alone.
	check("within", `[
		{"algo":"bfs","detector":"atomic","transport":"unix","msgs":5500,"retransmits":60,"wrong":0},
		{"algo":"cc","detector":"4ctr","transport":"tcp","msgs":9000,"retransmits":0,"wrong":0},
		{"algo":"bfs","detector":"atomic","transport":"unix+shipped","msgs":99999,"retransmits":99999,"wrong":0}]`, 0)
	check("msgs", `[{"algo":"bfs","detector":"atomic","transport":"unix","msgs":5600,"retransmits":0,"wrong":0}]`, 1)
	check("retransmits", `[{"algo":"cc","detector":"4ctr","transport":"tcp","msgs":16000,"retransmits":1900,"wrong":0}]`, 1)
	check("wrong", `[{"algo":"bfs","detector":"atomic","transport":"unix","msgs":5000,"retransmits":0,"wrong":7}]`, 1)
	check("wrong-in-new-cell", `[
		{"algo":"bfs","detector":"atomic","transport":"unix","msgs":5000,"retransmits":0,"wrong":0},
		{"algo":"bfs","detector":"atomic","transport":"new","msgs":1,"retransmits":0,"wrong":1}]`, 1)
	// Nothing to compare must fail loudly, not pass silently.
	check("no-overlap", `[{"algo":"x","detector":"y","transport":"z","msgs":1,"retransmits":0,"wrong":0}]`, 1)
	if bad, err := compareE21([]byte(`[{"algo":"bfs","detector":"atomic","transport":"unix"}]`), nil, tol, 64); err != nil || len(bad) != 1 {
		t.Fatalf("baseline without a matrix: bad=%v err=%v", bad, err)
	}
	if _, err := compareE21([]byte(`{`), base, tol, 64); err == nil {
		t.Fatal("malformed current matrix accepted")
	}
}
