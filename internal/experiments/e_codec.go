package experiments

import (
	"fmt"
	"runtime"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/harness"
)

// CodecRecord is one E20 measurement: a (algorithm, detector, codec) cell
// with the substrate's wire-byte accounting and a hand-rolled allocation
// delta (runtime.ReadMemStats around the run — same counter `-benchmem`
// reads, without dragging the testing package into the suite binary).
type CodecRecord struct {
	Algo       string  `json:"algo"`
	Detector   string  `json:"detector"`
	Codec      string  `json:"codec"`
	Msgs       int64   `json:"msgs"`
	ModelBytes int64   `json:"model_bytes"` // accounted size x count (codec-independent)
	WireBytes  int64   `json:"wire_bytes"`  // true encoded bytes (0 for reference delivery)
	BytesPer   float64 `json:"wire_bytes_per_msg"`
	Allocs     uint64  `json:"allocs"`
	AllocsPer  float64 `json:"allocs_per_msg"`
	AllocBytes uint64  `json:"alloc_bytes"`
	WallNs     int64   `json:"wall_ns"`
	Wrong      int     `json:"wrong"`
}

// e20Detectors names the two termination detectors the matrix crosses.
var e20Detectors = []struct {
	name string
	kind am.DetectorKind
}{
	{"atomic", am.DetectorAtomic},
	{"4ctr", am.DetectorFourCounter},
}

// e20Codecs: "reference" ships batches in memory over the reliable protocol
// (the pre-codec behaviour), "fixed" through the zero-reflection word-schema
// codec.
var e20Codecs = []string{"reference", "fixed"}

// E20CodecRecords runs the full BFS/SSSP/CC x detector x codec matrix and
// returns the measurements. Results of every codec are compared against the
// same algorithm+detector's reference run; Wrong counts differing vertices
// (must be 0 — bit-identical delivery is the codec contract).
func E20CodecRecords(sc Scale) []CodecRecord {
	n, edges := workload(sc)
	var recs []CodecRecord
	for _, algo := range []string{"bfs", "sssp", "cc"} {
		for _, det := range e20Detectors {
			var ref []int64
			for _, codec := range e20Codecs {
				rec, got := e20Run(sc, algo, det.name, det.kind, codec, n, edges)
				if codec == "reference" {
					ref = got
				}
				for v := range got {
					if got[v] != ref[v] {
						rec.Wrong++
					}
				}
				recs = append(recs, rec)
			}
		}
	}
	return recs
}

func e20Run(sc Scale, algo, detName string, det am.DetectorKind, codec string,
	n int, edges []distgraph.Edge) (CodecRecord, []int64) {
	gopts := defaultGOpts()
	if algo == "cc" {
		gopts.Symmetrize = true
	}
	plan := &am.FaultPlan{Seed: harness.DeriveSeed(sc.Seed, "e20/"+algo+"/"+detName)}
	e := newEnv(am.New(4, am.WithThreads(2), am.WithCoalesce(64), am.WithDetector(det), am.WithFaultPlan(plan)),
		n, edges, gopts, PaperPlan())
	if codec == "fixed" {
		e.eng.MsgType().WithWire()
	}
	// Outputs must be schedule-independent so codecs can be compared
	// bit-for-bit: BFS levels (not raced parent claims), SSSP distances,
	// and CC's partition canonicalized to smallest-member labels.
	var body func(r *am.Rank)
	var gather func() []int64
	switch algo {
	case "bfs":
		b := algorithms.NewBFS(e.eng)
		body = func(r *am.Rank) { b.Run(r, 0) }
		gather = b.Level.Gather
	case "sssp":
		s := algorithms.NewSSSP(e.eng)
		body = func(r *am.Rank) { s.Run(r, 0) }
		gather = s.Dist.Gather
	case "cc":
		c := algorithms.NewCC(e.eng, e.lm)
		body = func(r *am.Rank) { c.Run(r) }
		gather = func() []int64 { return canonicalize(c.Comp.Gather()) }
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := harness.Time(func() { e.u.Run(body) })
	runtime.ReadMemStats(&m1)
	s := e.u.Stats.Snapshot()
	rec := CodecRecord{
		Algo: algo, Detector: detName, Codec: codec,
		Msgs: s.MsgsSent, ModelBytes: s.BytesSent, WireBytes: s.WireBytes,
		Allocs:     m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		WallNs:     d.Nanoseconds(),
	}
	if rec.Msgs > 0 {
		rec.BytesPer = float64(rec.WireBytes) / float64(rec.Msgs)
		rec.AllocsPer = float64(rec.Allocs) / float64(rec.Msgs)
	}
	return rec, gather()
}

// canonicalize relabels a component vector so each class is named by its
// smallest member vertex — CC's raw root labels depend on which searches
// won the claiming races, but the induced partition is deterministic.
func canonicalize(comp []int64) []int64 {
	smallest := map[int64]int64{}
	for v, c := range comp {
		if s, ok := smallest[c]; !ok || int64(v) < s {
			smallest[c] = int64(v)
		}
	}
	out := make([]int64, len(comp))
	for v, c := range comp {
		out[v] = smallest[c]
	}
	return out
}

// E20Codec renders the record matrix as the suite table: "wrong" must read 0
// everywhere, and the fixed rows price serialization against the reference.
func E20Codec(sc Scale) []*harness.Table {
	t := harness.NewTable("E20: wire codec — bytes & allocations (BFS/SSSP/CC, 4 ranks x 2 threads, reliable transport)",
		"algorithm", "detector", "codec", "messages", "wire-bytes", "wire-B/msg", "allocs", "allocs/msg", "time", "wrong")
	for _, r := range E20CodecRecords(sc) {
		wb, wbp := "-", "-"
		if r.Codec != "reference" {
			wb, wbp = fmt.Sprint(r.WireBytes), fmt.Sprintf("%.1f", r.BytesPer)
		}
		t.Add(r.Algo, r.Detector, r.Codec, r.Msgs, wb, wbp, r.Allocs,
			fmt.Sprintf("%.2f", r.AllocsPer), time.Duration(r.WallNs).Round(time.Millisecond), r.Wrong)
	}
	return []*harness.Table{t}
}
