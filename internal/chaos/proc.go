// Process-kill dimension of the chaos harness: scenarios whose fault is the
// death of an entire OS worker process, not a dropped envelope. A fleet is
// launched with mp.Launch under a seeded kill schedule and its result is
// compared bit-for-bit against the fault-free single-process reference — the
// strongest statement the harness makes: checkpoint/restart across a process
// boundary is invisible in the output.
package chaos

import (
	"fmt"

	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/mp"
)

// ReferenceProc computes the fault-free single-process reference for a
// launched job: identical workload, rank count, and detector, on the trusted
// in-process transport, through this harness's own kernels rather than the
// job's binding. mp.Launch's vectors — in process or from a fleet — must
// equal it bit-for-bit.
func ReferenceProc(job mp.JobSpec) ([][]int64, error) {
	if err := (&job).Normalize(); err != nil {
		return nil, err
	}
	n, edges := job.Workload()
	w := Workload{N: n, Edges: edges}
	sc := Scenario{Ranks: job.Ranks, Threads: job.Threads, Detector: am.DetectorFourCounter}
	switch job.Algo {
	case "bfs":
		levels, _ := RunBFS(w, sc, distgraph.Vertex(job.Source))
		return [][]int64{levels}, nil
	case "sssp":
		dist, _ := RunSSSP(w, sc, distgraph.Vertex(job.Source), job.Delta)
		return [][]int64{dist}, nil
	case "cc":
		comp, _ := RunCC(w, sc)
		return [][]int64{comp}, nil
	}
	return nil, fmt.Errorf("chaos: unknown algorithm %q", job.Algo)
}
