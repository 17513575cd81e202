package chaos

import (
	"net"
	"testing"

	"declpat/internal/am"
	"declpat/internal/distgraph"
)

// Transport acceptance matrix: the same algorithms over the in-process
// channel transport, Unix-domain sockets, and TCP loopback — where every
// envelope is framed, CRC-sealed, and crosses a kernel socket — must produce
// bit-identical results on both termination detectors, including under
// seeded connection kills, link flaps, and one-way partitions.

// requireLoopback skips socket scenarios in sandboxes that forbid binding
// loopback listeners.
func requireLoopback(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
}

// transportAlgos names the three algorithm runners as result-vector
// functions of a scenario.
func transportAlgos(w Workload) map[string]func(Scenario) ([]int64, am.Snapshot) {
	src := distgraph.Vertex(3)
	return map[string]func(Scenario) ([]int64, am.Snapshot){
		"BFS":  func(sc Scenario) ([]int64, am.Snapshot) { return RunBFS(w, sc, src) },
		"SSSP": func(sc Scenario) ([]int64, am.Snapshot) { return RunSSSP(w, sc, src, 30) },
		"CC":   func(sc Scenario) ([]int64, am.Snapshot) { return RunCC(w, sc) },
	}
}

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
	requireLoopback(t)
	w := workload(t, 9, 8)
	for alg, run := range transportAlgos(w) {
		for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
			base := Scenario{Ranks: 3, Threads: 2, Coalesce: 4, Detector: det}
			want, _ := run(base)
			for _, tr := range []string{"unix", "tcp"} {
				for name, faults := range map[string]*am.SockFaultPlan{
					"clean": nil, "flaky": flakySockFaults(),
				} {
					if testing.Short() && (tr == "tcp" || name == "clean") {
						continue
					}
					t.Run(alg+"/"+det.String()+"/"+tr+"/"+name, func(t *testing.T) {
						sc := base
						sc.Transport = tr
						sc.SockFaults = faults
						got, stats := run(sc)
						check(t, alg, sc, got, want)
						if stats.WireBytes == 0 {
							t.Fatalf("%s under %s: no wire bytes on a socket transport", alg, sc)
						}
						if faults != nil {
							if stats.Reconnects == 0 {
								t.Fatalf("%s under %s: disconnect schedule never reconnected (stats %+v)", alg, sc, stats)
							}
							if stats.FramesDropped == 0 {
								t.Fatalf("%s under %s: disconnect schedule dropped no frames (stats %+v)", alg, sc, stats)
							}
						}
					})
				}
			}
		}
	}
}
