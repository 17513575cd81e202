package mp

import (
	"encoding/json"
	"fmt"
)

// JobSpec describes the algorithm run a launched fleet executes. Every
// worker receives the same spec (inside its welcome frame) and builds the
// same workload from it, so the fleet needs no shared filesystem for inputs
// — only the checkpoint directory is shared. The zero value of each optional
// field selects a sensible default via normalize.
type JobSpec struct {
	// Algo selects the kernel: "bfs", "sssp", or "cc".
	Algo string `json:"algo"`
	// Scale / EdgeFactor / Seed / WMin / WMax parameterize the RMAT workload
	// (2^Scale vertices, EdgeFactor edges per vertex, weights in
	// [WMin, WMax]).
	Scale      int    `json:"scale"`
	EdgeFactor int    `json:"edge_factor"`
	Seed       uint64 `json:"seed"`
	WMin       int64  `json:"wmin,omitempty"`
	WMax       int64  `json:"wmax,omitempty"`
	// Ranks is the global rank count, split contiguously over the workers;
	// Threads is handler threads per rank; Coalesce the coalescing factor
	// (0 = universe default).
	Ranks    int `json:"ranks"`
	Threads  int `json:"threads"`
	Coalesce int `json:"coalesce,omitempty"`
	// Source seeds bfs/sssp (it must be below 2^Scale); Delta is the sssp
	// bucket width.
	Source uint32 `json:"source,omitempty"`
	Delta  int64  `json:"delta,omitempty"`
	// Network selects the data-plane socket family inside each worker:
	// "tcp" (default) or "unix". The control plane is always TCP.
	Network string `json:"network,omitempty"`
	// Drop/Dup/Delay/Corrupt are per-worker transport fault rates; each
	// worker's fault plan is seeded with harness.WorkerSeed(root, idx, lo,
	// hi), so the schedule is deterministic per worker and survives
	// respawns.
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Delay   float64 `json:"delay,omitempty"`
	Corrupt float64 `json:"corrupt,omitempty"`
	// TraceDir, when set, makes each worker capture a timed trace and write
	// it as JSONL to TraceDir/worker-<idx>.trace.jsonl before exiting
	// (declpat-trace -phases consumes it).
	TraceDir string `json:"trace_dir,omitempty"`
	// TraceCap bounds the trace ring (total events; 0 = 1<<18).
	TraceCap int `json:"trace_cap,omitempty"`
	// FlightDir, when set, points each worker's always-on flight recorder at
	// FlightDir/flight-<idx>.dpfr — the crash-surviving black box that
	// declpat-trace -postmortem renders. Launch defaults it to the checkpoint
	// directory, so every launched fleet leaves dumps without opting in.
	FlightDir string `json:"flight_dir,omitempty"`
}

// Normalize fills defaults and validates the spec.
func (j *JobSpec) Normalize() error {
	switch j.Algo {
	case "bfs", "sssp", "cc":
	default:
		return fmt.Errorf("mp: unknown algorithm %q (want bfs, sssp, or cc)", j.Algo)
	}
	if j.Scale <= 0 {
		j.Scale = 8
	}
	if j.Algo != "cc" && j.Scale < 32 && j.Source >= 1<<j.Scale {
		return fmt.Errorf("mp: source vertex %d outside the %d vertices of a scale-%d graph", j.Source, 1<<j.Scale, j.Scale)
	}
	if j.EdgeFactor <= 0 {
		j.EdgeFactor = 8
	}
	if j.WMax <= 0 {
		j.WMin, j.WMax = 1, 16
	}
	if j.Ranks <= 0 {
		j.Ranks = 4
	}
	if j.Threads <= 0 {
		j.Threads = 2
	}
	if j.Algo == "sssp" && j.Delta <= 0 {
		j.Delta = 8
	}
	switch j.Network {
	case "":
		j.Network = "tcp"
	case "tcp", "unix":
	default:
		return fmt.Errorf("mp: unknown data-plane network %q (want tcp or unix)", j.Network)
	}
	if j.TraceCap <= 0 {
		j.TraceCap = 1 << 18
	}
	return nil
}

func (j *JobSpec) marshal() ([]byte, error) { return json.Marshal(j) }

func unmarshalJob(b []byte) (JobSpec, error) {
	var j JobSpec
	if err := json.Unmarshal(b, &j); err != nil {
		return j, fmt.Errorf("%w: job spec: %v", ErrDecode, err)
	}
	if err := j.Normalize(); err != nil {
		return j, err
	}
	return j, nil
}

// rankRange returns the contiguous global rank range worker idx hosts when
// ranks are split over workers: [idx*ranks/workers, (idx+1)*ranks/workers).
func rankRange(ranks, workers, idx int) (lo, hi int) {
	return idx * ranks / workers, (idx + 1) * ranks / workers
}
