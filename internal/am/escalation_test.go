package am_test

import (
	"errors"
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

// TestTransportPartitionEscalation black-holes one direction of a BFS run
// mid-epoch with no closing frame: retransmits die against the partition
// until the ceiling raises a rank fault, and since an open-ended partition
// stays open, Run must return that fault on both detectors instead of
// hanging. A socket tick is real time, so the test takes tight ceilings from
// WithCeilings; the defaults make it about ten times slower.
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
			u := am.New(3, am.WithThreads(2), am.WithCoalesce(4), am.WithDetector(det),
				am.WithFaultPlan(&am.FaultPlan{Seed: harness.DeriveSeed(baseSeed, "transport/partition")}),
				am.WithCeilings(2, 8),
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
			b := algorithms.NewBFS(eng)
			err := u.Run(func(r *am.Rank) { b.Run(r, src) })
			var f *am.RankFault
			if !errors.As(err, &f) || f.Kind != am.FaultLinkDead {
				t.Fatalf("open-ended partition: Run returned %v, want a link-dead *RankFault", err)
			}
			stats := u.Stats.Snapshot()
			if stats.EpochAborts != 1 {
				t.Fatalf("the fault must abort exactly one epoch, got %+v", stats)
			}
			if stats.FramesDropped == 0 {
				t.Fatalf("black-holed frames must be counted dropped, got %+v", stats)
			}
		})
	}
}
