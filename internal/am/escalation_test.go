package am_test

import (
	"net"
	"testing"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/chaos"
	"declpat/internal/distgraph"
	"declpat/internal/gen"
	"declpat/internal/harness"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// TestTransportPartitionEscalation black-holes one direction mid-run with no
// closing frame: retransmits die against the partition until the ceiling
// raises a rank fault, recovery rolls the epoch back and heals the window,
// and the replay must still match the channel-transport result bit for bit
// on both detectors. A socket tick is real time, so the test takes tight
// ceilings from WithCeilings; the defaults make it about ten times slower.
func TestTransportPartitionEscalation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	ln.Close()
	const baseSeed = 2026 // the chaos package's workload and fault seeds
	n, edges := gen.RMAT(9, 8, gen.Weights{Min: 1, Max: 100}, harness.DeriveSeed(baseSeed, "chaos/workload"))
	w := chaos.Workload{N: n, Edges: edges}
	src := distgraph.Vertex(3)
	for _, det := range []am.DetectorKind{am.DetectorAtomic, am.DetectorFourCounter} {
		t.Run(det.String(), func(t *testing.T) {
			// Both subtests mostly wait on real-time retransmit and
			// reconnect timers, so they overlap well.
			t.Parallel()
			want, _ := chaos.RunBFS(w, chaos.Scenario{Ranks: 3, Threads: 2, Coalesce: 4, Detector: det}, src)
			u := am.New(3, am.WithThreads(2), am.WithCoalesce(4), am.WithDetector(det), am.WithRecovery(),
				am.WithFaultPlan(&am.FaultPlan{Seed: harness.DeriveSeed(baseSeed, "transport/partition")}),
				am.WithCeilings(2, 12, 50),
				am.WithTransport(am.SockTransport(am.SockOptions{
					Network:      "tcp",
					TickInterval: 200 * time.Microsecond,
					Faults: &am.SockFaultPlan{
						Partitions: []am.SockPartition{{Src: 0, Dest: 1, FromFrame: 3, ToFrame: 0}}, // open-ended
					},
				})))
			d := distgraph.NewBlockDist(w.N, u.Ranks())
			g := distgraph.Build(d, w.Edges, distgraph.Options{})
			eng := pattern.NewEngine(u, g, pmap.NewLockMap(d, 1), pattern.DefaultPlanOptions())
			eng.MsgType().WithWire()
			b := algorithms.NewBFS(eng)
			if err := u.Run(func(r *am.Rank) { b.Run(r, src) }); err != nil {
				t.Fatalf("run: %v", err)
			}
			got, stats := b.Level.Gather(), u.Stats.Snapshot()
			if !chaos.Equal(got, want) {
				t.Fatalf("BFS diverges from the channel-transport run at %d vertices (first %v)",
					len(chaos.Diff(got, want, len(got))), chaos.Diff(got, want, 5))
			}
			if stats.EpochAborts == 0 || stats.Recoveries == 0 {
				t.Fatalf("open-ended partition must escalate to checkpoint/restart, got %+v", stats)
			}
			if stats.FramesDropped == 0 {
				t.Fatalf("black-holed frames must be counted dropped, got %+v", stats)
			}
		})
	}
}
