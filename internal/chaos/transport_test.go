package chaos

import (
	"testing"

	"declpat/internal/am"
	"declpat/internal/pattern"
)

// Transport row set: BFS, SSSP and CC over Unix-domain sockets and TCP
// loopback — where every envelope is framed, CRC-sealed, and crosses a kernel
// socket — on both termination detectors, clean and under seeded connection
// kills and link flaps.

// flakySockFaults is the seeded disconnect + flap schedule (deterministic in
// frame counts, so reproducible without any clock): one-shot connection
// kills on two links plus a link that dies every 7th frame, three times.
func flakySockFaults() *am.SockFaultPlan {
	return &am.SockFaultPlan{
		Disconnects: []am.SockDisconnect{
			{Src: 0, Dest: 1, AfterFrames: 5},
			{Src: 2, Dest: 0, AfterFrames: 9},
		},
		Flaps: []am.SockFlap{{Src: 1, Dest: 2, Period: 7, Count: 3}},
	}
}

func TestTransportMatrix(t *testing.T) {
	w := workload(9, 8)
	var cells []Cell
	for _, k := range []struct {
		name string
		Kernel
	}{{"BFS", BFS}, {"SSSP", SSSPDelta}, {"CC", CC}} {
		for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
			for _, tr := range []string{"unix", "tcp"} {
				for _, faults := range []struct {
					name string
					plan *am.SockFaultPlan
				}{{"clean", nil}, {"flaky", flakySockFaults()}} {
					if testing.Short() && (tr == "tcp" || faults.plan == nil) {
						continue
					}
					cells = append(cells, Cell{Name: k.name + "/" + det.String() + "/" + tr + "/" + faults.name,
						Kernel: k.Kernel, W: w, Plan: pattern.DefaultPlanOptions(),
						Scenario: Scenario{Ranks: 3, Threads: 2, Batch: 4, Detector: det, Transport: tr, SockFaults: faults.plan}})
				}
			}
		}
	}
	Rows(t, cells)
}
