package chaos

import (
	"fmt"
	"os"
	"slices"
	"testing"

	"declpat/internal/algorithms"
	"declpat/internal/mp"
)

func TestMain(m *testing.M) {
	mp.MaybeWorker() // launched worker children of the process-kill scenarios
	os.Exit(m.Run())
}

// TestProcessKillDimension runs the chaos harness's process-level fault: an
// entire OS worker SIGKILLed mid-run, with the fleet required to respawn,
// restore from the committed checkpoint, and still equal the sequential
// oracle. Its Workers 0 rows run the same jobs through Launch's in-process
// mode, held to the same oracle; only the rows that spawn processes skip
// under -short.
func TestProcessKillDimension(t *testing.T) {
	specs := []mp.LaunchSpec{
		{Job: mp.JobSpec{Algo: "bfs", Scale: 6, Seed: 3, Ranks: 4, Threads: 2, Source: 1}, RootSeed: 31},
		{Job: mp.JobSpec{Algo: "sssp", Scale: 6, Seed: 3, Ranks: 4, Threads: 2, Source: 1, Delta: 8}, RootSeed: 37},
		{Job: mp.JobSpec{Algo: "cc", Scale: 6, Seed: 3, Ranks: 4, Threads: 2}, RootSeed: 41},
		{Job: mp.JobSpec{Algo: "sssp", Scale: 6, Seed: 3, Ranks: 4, Threads: 2, Source: 1, Delta: 8, Drop: 0.05}, RootSeed: 43},
		{
			Job:      mp.JobSpec{Algo: "bfs", Scale: 6, Seed: 3, Ranks: 4, Threads: 2, Source: 1},
			Workers:  2,
			RootSeed: 31,
		},
		{
			Job:      mp.JobSpec{Algo: "sssp", Scale: 6, Seed: 3, Ranks: 4, Threads: 2, Source: 1, Delta: 8},
			Workers:  2,
			RootSeed: 37,
			Kill:     &mp.KillSpec{Worker: 0, Epoch: 1, Mode: "body"},
		},
		{
			Job:      mp.JobSpec{Algo: "cc", Scale: 6, Seed: 3, Ranks: 4, Threads: 2},
			Workers:  2,
			RootSeed: 41,
			Kill:     &mp.KillSpec{Worker: 1, Epoch: 1, Mode: "entry"},
		},
	}
	for _, spec := range specs {
		kill := "fault-free"
		if spec.Job.Drop > 0 {
			kill = fmt.Sprintf("drop=%g", spec.Job.Drop)
		}
		if spec.Kill != nil {
			kill = fmt.Sprintf("kill=%s/w%d@e%d", spec.Kill.Mode, spec.Kill.Worker, spec.Kill.Epoch)
		}
		procs := "in-process"
		if spec.Workers > 0 {
			procs = fmt.Sprintf("procs=%d", spec.Workers)
		}
		name := fmt.Sprintf("%s/%s/ranks=%d/%s/seed=%d",
			spec.Job.Algo, procs, spec.Job.Ranks, kill, spec.RootSeed)
		t.Run(name, func(t *testing.T) {
			if spec.Workers > 0 && testing.Short() {
				t.Skip("spawns worker processes")
			}
			res, err := mp.Launch(spec)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Kill != nil && res.Attempts < 2 {
				t.Fatalf("killed fleet completed in %d attempt(s); the kill never landed", res.Attempts)
			}
			// Launch assembles a cc vector canonically, each component
			// named by its smallest vertex, so equal partitions are equal
			// vectors, bit for bit.
			job := spec.Job
			if err := job.Normalize(); err != nil {
				t.Fatal(err)
			}
			if err := job.Verify(res.Vectors); err != nil {
				t.Fatal(err)
			}
			if job.Algo == "cc" && !slices.Equal(res.Vectors[0], algorithms.Canonicalize(res.Vectors[0])) {
				t.Fatal("cc vector is not canonical: some component is not named by its smallest vertex")
			}
		})
	}
}
