package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"declpat"
	"declpat/internal/algorithms"
)

// The probes run after a traced workload. They price what the workload's
// operations are made of — property-map operations, the fixed cost of an
// epoch, a barrier and a Universe.Run, a bare 16-byte message — and put the
// pattern engine next to its alternatives on the workload's own graph. They
// call only public functions and time them from outside.

// sockDir makes a directory for Unix sockets inside the benchmark's output
// directory (relative, so the path stays under the 108-byte socket limit) when
// unix is set; otherwise it returns "", the channel transport.
func sockDir(cfg config, unix bool, name string) (dir string, cleanup func(), err error) {
	if !unix {
		return "", func() {}, nil
	}
	dir = filepath.Join(cfg.outDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// probeFailed reports a probe that could not run: it is logged, counted as a
// failed operation, and its rows read 0.
func probeFailed(res *result, what string, err error) bool {
	if err == nil {
		return false
	}
	fmt.Fprintf(os.Stderr, "%s: probe %s: %v\n", res.workload, what, err)
	res.attempted++
	res.failed++
	return true
}

// probeSubstrate measures the pmap and am floors on the workload's transport
// and problem size.
func probeSubstrate(res *result, cfg config, in *inputs, unix bool) {
	reps, msgs := 15, 100_000
	if cfg.quick {
		reps, msgs = 5, 10_000
	}

	// pmap: the per-vertex operations every relaxation and every query pays.
	dist := declpat.NewBlockDist(in.n, ranks)
	m := declpat.NewVertexWordMap(dist, declpat.Inf)
	var local []declpat.Vertex
	m.ForEachLocal(0, func(v declpat.Vertex, _ int64) { local = append(local, v) })
	const minOps = 1 << 20
	t := time.Now()
	for i := 0; i < minOps; i++ {
		m.Min(0, local[i%len(local)], int64(minOps-i))
	}
	res.set("pmap.min_ns_op", float64(time.Since(t).Nanoseconds())/minOps)
	var reset, gather []float64
	for i := 0; i < reps; i++ {
		t = time.Now()
		m.ForEachLocal(0, func(v declpat.Vertex, _ int64) { m.Set(0, v, declpat.Inf) })
		reset = append(reset, us(time.Since(t)))
		t = time.Now()
		sink = m.Gather()
		gather = append(gather, us(time.Since(t)))
	}
	res.set("pmap.reset_us", median(reset))
	res.set("pmap.gather_us", median(gather))

	// am: an empty epoch, a barrier, an empty Run, and the metrics export.
	dir, cleanup, err := sockDir(cfg, unix, "sockprobe")
	if probeFailed(res, "socket directory", err) {
		return
	}
	defer cleanup()
	u := declpat.New(ranks, universeOpts(dir, false)...)
	var epochUs, barrierUs float64
	err = u.Run(func(r *declpat.Rank) {
		const epochs, barriers = 200, 2000
		r.Barrier()
		t := time.Now()
		for i := 0; i < epochs; i++ {
			r.Epoch(func(*declpat.EpochHandle) {})
		}
		if r.ID() == 0 {
			epochUs = us(time.Since(t)) / epochs
		}
		t = time.Now()
		for i := 0; i < barriers; i++ {
			r.Barrier()
		}
		if r.ID() == 0 {
			barrierUs = us(time.Since(t)) / barriers
		}
	})
	if !probeFailed(res, "epoch floor", err) {
		res.set("am.epoch_floor_us", epochUs)
		res.set("am.barrier_us", barrierUs)
	}
	var write []float64
	for i := 0; i < reps; i++ {
		t = time.Now()
		if u.WriteOpenMetrics(io.Discard) == nil {
			write = append(write, ms(time.Since(t)))
		}
	}
	res.set("obs.metrics_write_ms", median(write))

	var floor []float64
	for i := 0; i < 5; i++ {
		u := declpat.New(ranks, universeOpts(dir, false)...)
		t = time.Now()
		if !probeFailed(res, "run floor", u.Run(func(*declpat.Rank) {})) {
			floor = append(floor, ms(time.Since(t)))
		}
	}
	res.set("am.run_floor_ms", median(floor))

	// A bare 16-byte message with a trivial handler on each message plane:
	// by reference in process, through the wire codec in process, and
	// through the codec and a Unix socket.
	chanOpts := universeOpts("", false)
	res.set("am.pingstorm_ns_per_msg.chan", pingstorm(chanOpts, false, msgs))
	res.set("am.pingstorm_ns_per_msg.chanwire", pingstorm(append(chanOpts, declpat.WithFaultPlan(&declpat.FaultPlan{Seed: 1})), true, msgs))
	pingDir, cleanup, err := sockDir(cfg, true, "sockping")
	if !probeFailed(res, "socket directory", err) {
		res.set("am.pingstorm_ns_per_msg.unix", pingstorm(universeOpts(pingDir, false), true, msgs))
		cleanup()
	}
}

// sink keeps the compiler from discarding a measured call's result.
var sink []int64

type ping struct{ A, B uint64 }

// pingstorm sends n messages from rank 0 to rank 1 inside one epoch and
// returns the nanoseconds per message, epoch entry to epoch exit (0 if the run
// failed or lost a message).
func pingstorm(opts []declpat.Option, wire bool, n int) float64 {
	u := declpat.New(ranks, opts...)
	var got atomic.Int64
	var mopts []declpat.MsgOption[ping]
	if wire {
		mopts = append(mopts, declpat.WithWire[ping]())
	}
	mt := declpat.RegisterMsgType(u, "ping", func(_ *declpat.Rank, m ping) { got.Add(int64(m.A)) }, mopts...)
	var d time.Duration
	err := u.Run(func(r *declpat.Rank) {
		r.Barrier()
		t := time.Now()
		r.Epoch(func(*declpat.EpochHandle) {
			if r.ID() == 0 {
				for i := 0; i < n; i++ {
					mt.SendTo(r, 1, ping{1, uint64(i)})
				}
			}
		})
		if r.ID() == 0 {
			d = time.Since(t)
		}
	})
	if err != nil || got.Load() != int64(n) {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// timeSolves builds a fresh universe of nRanks over in's graph, binds a solver
// with bind, and times n resident solves after one warm-up, barrier to
// barrier, checking each answer. It returns the solve times in ms and the
// epochs per solve; a failed run or a wrong answer is an error.
func timeSolves(in *inputs, algo string, nRanks int, unixDir string, n int, bind func(b built) solver) ([]float64, float64, error) {
	dist := declpat.NewBlockDist(in.n, nRanks)
	var b built
	b.g = declpat.BuildGraph(dist, in.edges, declpat.GraphOptions{})
	b.u = declpat.New(nRanks, universeOpts(unixDir, false)...)
	b.eng = declpat.NewEngine(b.u, b.g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	if unixDir != "" {
		b.eng.MsgType().WithWire()
	}
	s := bind(b)
	var lat []float64
	var epochs int64
	wrong := 0
	err := b.u.Run(func(r *declpat.Rank) {
		for i := 0; i <= n; i++ {
			pi := in.source(i)
			r.Barrier()
			t := time.Now()
			e0 := b.u.Stats.Epochs()
			s.run(r, in.pool[pi])
			r.Barrier()
			if r.ID() == 0 && i > 0 { // solve 0 warms up
				lat = append(lat, ms(time.Since(t)))
				epochs += b.u.Stats.Epochs() - e0
				if !in.matches(algo, pi, s.gather()) {
					wrong++
				}
			}
			r.Barrier()
		}
	})
	if err != nil {
		return nil, 0, err
	}
	if wrong > 0 {
		return nil, 0, fmt.Errorf("%d of %d answers wrong", wrong, n)
	}
	return lat, ratio(float64(epochs), float64(n)), nil
}

// probeOneshot puts the pattern engine beside its alternatives, on the
// workload's graph: the hand-written active-message version (the paper's
// bargain), Δ-stepping (many short epochs), one rank (no remote messages),
// and a graph four or two scales up (working set beyond the L2 cache).
func probeOneshot(res *result, cfg config, spec oneshotSpec, in *inputs) {
	n, nBig, bigScale := 12, 3, 16
	if cfg.quick {
		n, nBig, bigScale = 2, 1, 12
	}
	pattern := func(b built) solver { return bindSolver(b.eng, spec.algo) }
	hand := func(b built) solver {
		if spec.algo == algoSSSP {
			h := algorithms.NewHandSSSP(b.u, b.g)
			return solver{h.Run, h.Dist.Gather, nil}
		}
		h := algorithms.NewHandBFS(b.u, b.g)
		return solver{h.Run, h.Level.Gather, nil}
	}
	// Both on the channel transport: the hand-written BFS has no wire codec.
	pat2, _, err := timeSolves(in, spec.algo, ranks, "", n, pattern)
	probeFailed(res, "pattern 2x1", err)
	hnd2, _, err := timeSolves(in, spec.algo, ranks, "", n, hand)
	probeFailed(res, "hand 2x1", err)
	pat1, _, err := timeSolves(in, spec.algo, 1, "", n, pattern)
	probeFailed(res, "pattern 1x1", err)
	res.set("pattern.vs_hand_ratio", ratio(median(pat2), median(hnd2)))
	res.set("am.rank_overhead_ratio", ratio(median(pat2), median(pat1)))

	if spec.algo == algoSSSP {
		delta, epochs, err := timeSolves(in, spec.algo, ranks, "", n, func(b built) solver {
			s := declpat.NewSSSP(b.eng).UseDelta(b.u, 32)
			return solver{s.Run, s.Dist.Gather, s.Relax}
		})
		probeFailed(res, "delta", err)
		res.set("strategy.delta_solve_ms_p50", median(delta))
		res.set("strategy.delta_epochs", epochs)
	}

	big, err := makeInputs(bigScale, cfg.seed, 2, spec.algo)
	if probeFailed(res, "scale-up inputs", err) {
		return
	}
	dir, cleanup, err := sockDir(cfg, spec.unix, "sockbig")
	if probeFailed(res, "socket directory", err) {
		return
	}
	lat, _, err := timeSolves(big, spec.algo, ranks, dir, nBig, pattern)
	cleanup()
	probeFailed(res, "scale-up", err)
	res.set("algorithms.solve_ms_scale16", median(lat))
}
