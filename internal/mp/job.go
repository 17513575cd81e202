package mp

import (
	"encoding/json"
	"fmt"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
	"declpat/internal/seq"
)

// weightMin and weightMax bound the RMAT edge weights of every job. No caller
// ever varied them, so the spec does not carry them.
const weightMin, weightMax = 1, 16

// traceCap is a tracing universe's trace ring capacity in events, split over
// its ranks — the same in a fleet worker and in an in-process run. A
// variable only so a test can shrink it until the rings overwrite.
var traceCap = 1 << 18

// JobSpec describes one bfs/sssp/cc run: the description a launched fleet
// ships to every worker (inside its welcome frame, so the fleet needs no
// shared filesystem for inputs — only the checkpoint directory is shared),
// the gate declpat-launch passes its flags through before building anything
// (Normalize, applied by LaunchSpec.Validate), and the oracle its result is
// checked against (Verify).
type JobSpec struct {
	// Algo selects the kernel: "bfs", "sssp", or "cc".
	Algo string `json:"algo"`
	// Scale / EdgeFactor / Seed parameterize the RMAT workload (2^Scale
	// vertices, EdgeFactor edges per vertex, weights in [1, 16]).
	Scale      int    `json:"scale"`
	EdgeFactor int    `json:"edge_factor"`
	Seed       uint64 `json:"seed"`
	// Ranks is the global rank count, split contiguously over the workers;
	// Threads is handler threads per rank (0 = none: rank mains handle
	// their own messages).
	Ranks   int `json:"ranks"`
	Threads int `json:"threads"`
	// Source seeds bfs/sssp (it must be below 2^Scale; 64 bits wide so a
	// too-large flag value is refused, not truncated); Delta is the sssp
	// bucket width.
	Source uint64 `json:"source,omitempty"`
	Delta  int64  `json:"delta,omitempty"`
	// Network selects the data-plane socket family inside each worker:
	// "tcp" (default) or "unix". The control plane is always TCP.
	Network string `json:"network,omitempty"`
	// Drop is the per-worker data-plane drop rate; each worker's fault plan
	// is seeded with harness.WorkerSeed(root, idx, lo, hi), so the schedule
	// is deterministic per worker and survives respawns.
	Drop float64 `json:"drop,omitempty"`
	// TraceDir, when set, makes the run capture a timed trace — each fleet
	// worker streams its own to the launcher — and leaves one timeline,
	// TraceDir/fleet.trace.jsonl (declpat-trace -in TraceDir reads it).
	TraceDir string `json:"trace_dir,omitempty"`
	// FlightDir, when set, points each worker's always-on flight recorder at
	// FlightDir/flight-<idx>.dpfr — the crash-surviving black box that
	// declpat-trace -postmortem renders. Launch defaults it to the checkpoint
	// directory, so every launched fleet leaves dumps without opting in.
	FlightDir string `json:"flight_dir,omitempty"`
}

// Normalize validates the spec and fills defaults: a zero Scale, EdgeFactor
// or Ranks takes 8, 8 or 4, a zero sssp Delta takes 8, an empty Network
// "tcp"; a zero Threads stays zero. It refuses an unknown algorithm or
// network, sizes CheckSizes refuses, a negative Delta, a drop rate outside
// [0, 1], and a bfs/sssp source outside the graph — so a job it accepts
// neither panics a universe nor runs a fleet out of memory.
func (j *JobSpec) Normalize() error {
	switch j.Algo {
	case "bfs", "sssp", "cc":
	default:
		return fmt.Errorf("mp: unknown algorithm %q (want bfs, sssp, or cc)", j.Algo)
	}
	if j.Scale == 0 {
		j.Scale = 8
	}
	if j.EdgeFactor == 0 {
		j.EdgeFactor = 8
	}
	if j.Ranks == 0 {
		j.Ranks = 4
	}
	if err := CheckSizes(j.Scale, j.EdgeFactor, j.Ranks, j.Threads); err != nil {
		return err
	}
	if j.Delta < 0 {
		return fmt.Errorf("mp: negative delta %d", j.Delta)
	}
	if !(j.Drop >= 0 && j.Drop <= 1) {
		return fmt.Errorf("mp: drop rate %v outside [0, 1]", j.Drop)
	}
	if j.Algo != "cc" && j.Source >= 1<<j.Scale {
		return fmt.Errorf("mp: source vertex %d outside the %d vertices of a scale-%d graph", j.Source, 1<<j.Scale, j.Scale)
	}
	if j.Algo == "sssp" && j.Delta == 0 {
		j.Delta = 8
	}
	switch j.Network {
	case "":
		j.Network = "tcp"
	case "tcp", "unix":
	default:
		return fmt.Errorf("mp: unknown data-plane network %q (want tcp or unix)", j.Network)
	}
	return nil
}

// CheckSizes is the size rule of every front door that generates an RMAT
// graph and builds a universe over it, applied once defaults are filled: no
// size is negative (gen.RMAT and distgraph.NewBlockDist panic on one), a
// universe has at least one rank, and a scale is below 32 (vertex ids are
// 32-bit). Normalize applies it to a job; declpat-serve, whose flags have
// no defaults to fill, to its flags.
func CheckSizes(scale, edgeFactor, ranks, threads int) error {
	for _, size := range []struct {
		name string
		v    int
	}{{"scale", scale}, {"edge factor", edgeFactor}, {"threads", threads}} {
		if size.v < 0 {
			return fmt.Errorf("mp: negative %s %d", size.name, size.v)
		}
	}
	if ranks < 1 {
		return fmt.Errorf("mp: %d ranks (want at least 1)", ranks)
	}
	if scale >= 32 {
		return fmt.Errorf("mp: scale %d too large (vertex ids are 32-bit; want below 32)", scale)
	}
	return nil
}

// Workload generates the job's RMAT graph: its vertex count and edge list.
func (j *JobSpec) Workload() (int, []distgraph.Edge) {
	return gen.RMAT(j.Scale, j.EdgeFactor, gen.Weights{Min: weightMin, Max: weightMax}, j.Seed)
}

// Bind builds the normalized job's workload over u's ranks — the graph, a
// pattern engine with the default plan options, and the kernel — and returns
// the engine, the body every rank runs, and the vectors the body leaves its
// result in: [level] for bfs, [dist] for sssp, [pnt, chg] for cc (Launch
// resolves the components from the gathered tables). Launch runs a job
// through it, around a fleet worker's universe (RunWorker) or an in-process
// one.
func (j *JobSpec) Bind(u *am.Universe) (*pattern.Engine, func(r *am.Rank), []*pmap.VertexWord) {
	n, edges := j.Workload()
	d := distgraph.NewBlockDist(n, u.Ranks())
	g := distgraph.Build(d, edges, distgraph.Options{Symmetrize: j.Algo == "cc"})
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
	src := distgraph.Vertex(j.Source)
	switch j.Algo {
	case "bfs":
		b := algorithms.NewBFS(eng)
		return eng, func(r *am.Rank) { b.Run(r, src) }, []*pmap.VertexWord{b.Level}
	case "sssp":
		s := algorithms.NewSSSP(eng)
		s.UseDelta(u, j.Delta)
		return eng, func(r *am.Rank) { s.Run(r, src) }, []*pmap.VertexWord{s.Dist}
	}
	// RunResolve, not Run: the final pointer-chase rewrite is "not a graph
	// computation" (§II-B), and in a fleet local rewrites would bake
	// worker-local views into the shipped labels. The launcher resolves
	// components from the full gathered (pnt, chg) tables.
	c := algorithms.NewCC(eng, lm)
	return eng, func(r *am.Rank) { c.RunResolve(r) }, []*pmap.VertexWord{c.Pnt, c.Chg}
}

// Verify checks a launch's result vectors against the sequential oracle on
// the normalized job's own workload: bfs levels against seq.BFS and sssp
// distances against seq.Dijkstra (algorithms.CountWrong), cc components
// against seq.Components (algorithms.WrongPartition).
func (j *JobSpec) Verify(vectors [][]int64) error {
	n, edges := j.Workload()
	if len(vectors) != 1 || len(vectors[0]) != n {
		return fmt.Errorf("mp: %s result is %d vectors, want one of %d entries", j.Algo, len(vectors), n)
	}
	got, src := vectors[0], distgraph.Vertex(j.Source)
	var bad int
	switch j.Algo {
	case "bfs":
		bad = algorithms.CountWrong(got, seq.BFS(n, edges, src))
	case "sssp":
		bad = algorithms.CountWrong(got, seq.Dijkstra(n, edges, src))
	default:
		bad = algorithms.WrongPartition(got, seq.Components(n, edges))
	}
	if bad > 0 {
		return fmt.Errorf("mp: %s result differs from the sequential reference at %d of %d vertices", j.Algo, bad, n)
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
