package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
	// An empty spec keeps the 20 % default.
	tol, err := parseTolerance("")
	if err != nil || tol.of("B/op") != 0.20 {
		t.Fatalf("default: tol=%v err=%v", tol, err)
	}
	// A bare percent applies to every metric.
	tol, err = parseTolerance("50")
	if err != nil || tol.of("B/op") != 0.50 || tol.of("wire_B") != 0.50 {
		t.Fatalf("bare percent: tol=%+v err=%v", tol, err)
	}
	// Per-metric entries override the default; unlisted metrics keep it.
	tol, err = parseTolerance("B/op=30, allocs/op=5")
	if err != nil || tol.of("B/op") != 0.30 || tol.of("allocs/op") != 0.05 || tol.of("wire_B") != 0.20 {
		t.Fatalf("per-metric: tol=%+v err=%v", tol, err)
	}
	// Mixed: bare default plus a per-metric budget.
	tol, err = parseTolerance("30,wire_B=10")
	if err != nil || tol.of("B/op") != 0.30 || tol.of("wire_B") != 0.10 {
		t.Fatalf("mixed: tol=%+v err=%v", tol, err)
	}
	if _, err = parseTolerance("B/op=lots"); err == nil {
		t.Fatal("malformed percent accepted")
	}
	if _, err = parseTolerance("-5"); err == nil {
		t.Fatal("negative percent accepted")
	}

	// A per-metric tolerance gates exactly its metric.
	base := []Benchmark{{Name: "BenchmarkX/fixed", Metrics: map[string]float64{"B/op": 1000, "wire_B": 1000}}}
	cur := []Benchmark{{Name: "BenchmarkX/fixed", Metrics: map[string]float64{"B/op": 1200, "wire_B": 1200}}}
	tight, _ := parseTolerance("B/op=30,wire_B=5")
	bad := compare(cur, base, "fixed", tight, 0)
	if len(bad) != 1 || !strings.Contains(bad[0], "wire_B") {
		t.Fatalf("per-metric gate: %v", bad)
	}
}

func TestCompareE21(t *testing.T) {
	tol, err := parseTolerance("25,msgs=10,retransmits=100")
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
		wrong, err := wrongCells("e21", []byte(cur)) // main gates both
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bad = append(bad, wrong...)
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

// TestReadMatrix: the record file of `experiments -json` fills only its
// matrices; the committed E21 matrix passes the gate against itself with
// CI's tolerances and fails it with one wrong vertex.
func TestReadMatrix(t *testing.T) {
	read := func(rep *Report, body string) error {
		path := filepath.Join(t.TempDir(), "matrix.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return readInto(rep, path)
	}
	benches, _ := parse(strings.NewReader(sample))
	rep := Report{Benchmarks: benches}
	if err := read(&rep, `{"e21": [{"algo":"bfs","transport":"unix"}]}`); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 || rep.E20 != nil || rep.E22 != nil || !strings.Contains(string(rep.E21), `"unix"`) {
		t.Fatalf("matrix not merged into E21 alone: %+v", rep)
	}
	if err := read(&rep, `{"e21": `); err == nil {
		t.Fatal("malformed matrix file accepted")
	}

	var ref Report
	if err := readInto(&ref, "../../BENCH_transport.json"); err != nil {
		t.Fatal(err)
	}
	tol, _ := parseTolerance("25,wire_B=10,msgs=25,retransmits=100")
	var cells []map[string]any
	if err := json.Unmarshal(ref.E21, &cells); err != nil || len(cells) == 0 {
		t.Fatalf("committed e21 matrix: %d cells, err %v", len(cells), err)
	}
	for _, wrong := range []int{0, 1} {
		cells[len(cells)/2]["wrong"] = wrong
		body, _ := json.Marshal(map[string]any{"e21": cells})
		var cur Report
		if err := read(&cur, string(body)); err != nil {
			t.Fatal(err)
		}
		bad, err := compareE21(cur.E21, ref.E21, tol, 64)
		if err != nil {
			t.Fatal(err)
		}
		wrongBad, err := wrongCells("e21", cur.E21)
		bad = append(bad, wrongBad...)
		if err != nil || len(bad) != wrong {
			t.Fatalf("one cell with wrong = %d: violations %v, err %v", wrong, bad, err)
		}
	}
}

// TestWrongCells: the committed E20 matrix passes the correctness gate, and
// one doctored cell that answers wrongly fails it, named by its cell.
func TestWrongCells(t *testing.T) {
	var ref Report
	if err := readInto(&ref, "../../BENCH_codec.json"); err != nil {
		t.Fatal(err)
	}
	var cells []map[string]any
	if err := json.Unmarshal(ref.E20, &cells); err != nil || len(cells) == 0 {
		t.Fatalf("committed e20 matrix: %d cells, err %v", len(cells), err)
	}
	for _, wrong := range []int{0, 3} {
		cells[len(cells)/2]["wrong"] = wrong
		body, _ := json.Marshal(cells)
		bad, err := wrongCells("e20", body)
		if err != nil || len(bad) != min(wrong, 1) {
			t.Fatalf("one cell with wrong = %d: violations %v, err %v", wrong, bad, err)
		}
		if wrong != 0 && !strings.Contains(bad[0], "e20 "+cells[len(cells)/2]["algo"].(string)+"/") {
			t.Fatalf("violation does not name its cell: %q", bad[0])
		}
	}
	if _, err := wrongCells("e20", []byte(`{`)); err == nil {
		t.Fatal("malformed matrix accepted")
	}
}
