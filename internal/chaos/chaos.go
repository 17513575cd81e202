// Package chaos is the fault-injection harness: it runs the pattern-based
// algorithms (BFS, SSSP, CC) on the reliable transport while the fault
// injector drops, duplicates, reorders, and corrupts envelopes, and checks
// that every run computes results identical to the fault-free run. It is
// the repo's evidence that the paper's declarative patterns — and the epoch
// / termination-detection machinery they depend on — survive a realistic
// lossy network, not just the trusted in-process simulation.
//
// All randomness is explicitly seeded: the workload generator takes a seed,
// and every FaultPlan's seed is derived from the scenario seed with
// harness.DeriveSeed, so any failure is reproducible from the seed recorded
// in the failure message.
package chaos

import (
	"fmt"
	"slices"
	"time"

	"declpat/internal/algorithms"
	"declpat/internal/am"
	"declpat/internal/distgraph"
	"declpat/internal/pattern"
	"declpat/internal/pmap"
)

// Workload is a generated input graph.
type Workload struct {
	N     int
	Edges []distgraph.Edge
}

// Scenario is one machine + fault configuration.
type Scenario struct {
	Ranks   int
	Threads int
	// Coalesce is the envelope coalescing factor (0 = universe default).
	// Small values ship many small envelopes, giving the injector more
	// targets.
	Coalesce int
	Detector am.DetectorKind
	// Plan is the fault plan; nil runs the trusted transport (the
	// fault-free baseline).
	Plan *am.FaultPlan
	// Wire routes the pattern engine's message type through the wire
	// transport with the fixed codec (so Corrupt faults apply to it); false
	// ships it in memory (the reference transport).
	Wire bool
	// Recovery enables epoch-granular checkpoint/restart: rank faults
	// (injected crashes, dead links, contained panics) roll the damaged
	// epoch back and replay it instead of failing the run.
	Recovery bool
	// Transport selects the message backend: "" or "chan" for the
	// in-process channel transport, "unix" or "tcp" for real sockets
	// (loopback), where every envelope is framed, CRC-sealed, and crosses a
	// kernel socket. Socket scenarios always ship on the wire — the backend
	// refuses codec-less types.
	Transport string
	// SockFaults injects socket-level failures (connection kills, one-way
	// partitions, link flaps) into a socket transport; ignored on "chan".
	SockFaults *am.SockFaultPlan
}

// String names the scenario for test output.
func (sc Scenario) String() string {
	wire := ""
	if sc.Wire {
		wire = "/wire=fixed"
	}
	if sc.Transport != "" && sc.Transport != "chan" {
		wire += "/transport=" + sc.Transport
		if sc.SockFaults != nil {
			wire += fmt.Sprintf("/sockfaults=%d",
				len(sc.SockFaults.Disconnects)+len(sc.SockFaults.Partitions)+len(sc.SockFaults.Flaps))
		}
	}
	if sc.Plan == nil {
		return fmt.Sprintf("baseline/%dx%d/%s%s", sc.Ranks, sc.Threads, sc.Detector, wire)
	}
	rec := wire
	if sc.Recovery {
		rec += "/recovery"
	}
	if n := len(sc.Plan.Crashes) + len(sc.Plan.DeadLinks); n > 0 {
		rec += fmt.Sprintf("/faults=%d", n)
	}
	return fmt.Sprintf("drop=%g,dup=%g,delay=%g,corrupt=%g/%dx%d/%s/seed=%d%s",
		sc.Plan.Drop, sc.Plan.Dup, sc.Plan.Delay, sc.Plan.Corrupt,
		sc.Ranks, sc.Threads, sc.Detector, sc.Plan.Seed, rec)
}

func (sc Scenario) options() []am.Option {
	opts := []am.Option{
		am.WithThreads(sc.Threads),
		am.WithCoalesce(sc.Coalesce),
		am.WithDetector(sc.Detector),
		am.WithFaultPlan(sc.Plan),
	}
	if sc.Recovery {
		opts = append(opts, am.WithRecovery())
	}
	switch sc.Transport {
	case "", "chan":
	case "unix", "tcp":
		opts = append(opts, am.WithTransport(am.SockTransport(am.SockOptions{
			Network:      sc.Transport,
			TickInterval: 200 * time.Microsecond,
			Faults:       sc.SockFaults,
		})))
	default:
		panic(fmt.Sprintf("chaos: unknown Transport %q", sc.Transport))
	}
	return opts
}

// engine builds a fresh universe + engine over w for one algorithm run.
func engine(w Workload, sc Scenario, gopts distgraph.Options) (*am.Universe, *pattern.Engine, *pmap.LockMap) {
	u := am.New(sc.Ranks, sc.options()...)
	d := distgraph.NewBlockDist(w.N, u.Ranks())
	g := distgraph.Build(d, w.Edges, gopts)
	lm := pmap.NewLockMap(d, 1)
	eng := pattern.NewEngine(u, g, lm, pattern.DefaultPlanOptions())
	if sc.Wire || (sc.Transport != "" && sc.Transport != "chan") {
		// Socket backends refuse codec-less types.
		eng.MsgType().WithWire()
	}
	return u, eng, lm
}

// RunBFS computes BFS levels from src under sc and returns the level vector
// plus the run's transport statistics.
func RunBFS(w Workload, sc Scenario, src distgraph.Vertex) ([]int64, am.Snapshot) {
	u, eng, _ := engine(w, sc, distgraph.Options{})
	b := algorithms.NewBFS(eng)
	mustRun(sc, u.Run(func(r *am.Rank) { b.Run(r, src) }))
	return b.Level.Gather(), u.Stats.Snapshot()
}

// mustRun panics on an unexpected Run error: the harness's scenarios are all
// expected to complete (faults are either absent or recoverable), so an
// error here is a finding, not a usage mistake.
func mustRun(sc Scenario, err error) {
	if err != nil {
		panic(fmt.Sprintf("chaos: run under %s failed: %v", sc, err))
	}
}

// RunSSSP computes shortest distances from src under sc (Δ-stepping, the
// strategy with the richest epoch structure) and returns the distance
// vector plus statistics.
func RunSSSP(w Workload, sc Scenario, src distgraph.Vertex, delta int64) ([]int64, am.Snapshot) {
	return RunSSSPMode(w, sc, src, delta, algorithms.SSSPDelta)
}

// RunSSSPMode is RunSSSP under one of the Δ-stepping strategies: SSSPDelta,
// SSSPDeltaLightHeavy, or SSSPDeltaDistributed with two body threads per
// rank.
func RunSSSPMode(w Workload, sc Scenario, src distgraph.Vertex, delta int64, mode algorithms.SSSPMode) ([]int64, am.Snapshot) {
	u, eng, _ := engine(w, sc, distgraph.Options{})
	s := algorithms.NewSSSP(eng)
	switch mode {
	case algorithms.SSSPDelta:
		s.UseDelta(u, delta)
	case algorithms.SSSPDeltaLightHeavy:
		s.UseDeltaLightHeavy(u, delta)
	case algorithms.SSSPDeltaDistributed:
		s.UseDeltaDistributed(u, delta, 2)
	default:
		panic(fmt.Sprintf("chaos: SSSP mode %d is not a Δ-stepping strategy", mode))
	}
	mustRun(sc, u.Run(func(r *am.Rank) { s.Run(r, src) }))
	return s.Dist.Gather(), u.Stats.Snapshot()
}

// RunCC computes connected components under sc and returns the canonical
// partition (see algorithms.Canonicalize) plus statistics.
func RunCC(w Workload, sc Scenario) ([]int64, am.Snapshot) {
	u, eng, lm := engine(w, sc, distgraph.Options{Symmetrize: true})
	c := algorithms.NewCC(eng, lm)
	mustRun(sc, u.Run(func(r *am.Rank) { c.Run(r) }))
	return algorithms.Canonicalize(c.Comp.Gather()), u.Stats.Snapshot()
}

// Diff returns the indices (up to max) where two result vectors differ, for
// failure messages.
func Diff(a, b []int64, max int) []int {
	var d []int
	for i := range a {
		if a[i] != b[i] {
			d = append(d, i)
			if len(d) == max {
				break
			}
		}
	}
	return d
}

// Equal reports whether two result vectors are bit-identical.
func Equal(a, b []int64) bool { return slices.Equal(a, b) }
