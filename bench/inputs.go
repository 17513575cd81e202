package main

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"declpat"
	"declpat/internal/seq"
)

const (
	edgeFactor = 8
	ranks      = 2
	threads    = 1
)

var weights = declpat.WeightSpec{Min: 1, Max: 100}

// Algorithms the workloads issue. The names are the query plane's wire names.
const (
	algoBFS      = "bfs"
	algoSSSP     = "sssp"
	algoPageRank = "pagerank"
)

// inputs is everything one instance of a workload derives from its seed
// before anything is timed: the graph, a pool of sources that reach a large
// part of it, the sequential reference answer for every (algorithm, source)
// the instance will ask for, and the request script. The program under test
// sees only the graph (or the seed that regenerates it) and explicit sources.
type inputs struct {
	seed  uint64
	scale int
	n     int
	edges []declpat.Edge
	pool  []declpat.Vertex
	// ref[algo][i] is the sequential answer from pool[i], in the program's
	// encoding (unreached = declpat.Inf).
	ref map[string][][]int64
	// seqMs[algo] holds the single-thread reference solve times from every
	// pool source, taken while the references were computed; seqP50 is their
	// median, the in-run yardstick latencies are divided by (see xSeq).
	seqMs  map[string][]float64
	seqP50 map[string]float64
	// reachEdges[i] counts the edges whose tail pool[i] reaches: the edges a
	// traversal from it must examine (the numerator of algorithms.mteps).
	reachEdges []float64
	// script is the request order: indices into pool, as back-to-back seeded
	// permutations, so that an instance asks for every source equally often.
	// Solve time depends strongly on the source (a factor of two inside one
	// pool); drawing sources independently would make a median depend on the
	// luck of the draw.
	script []int
	cursor atomic.Int64
}

// instanceSeed is the seed of instance i's inputs. Every instance of a run
// gets a graph of its own: RMAT graphs of one scale differ enough that the
// median solve on one is 10 % off that on another (measured, oneshot-unix-bfs),
// and a run that pools its instances over as many graphs reports the figure of
// the scale, not of one seed's graph.
func instanceSeed(seed uint64, i int) uint64 { return seed*100 + uint64(i) }

// rng derives an independent stream per purpose from the one seed.
func rng(seed uint64, purpose uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, purpose)) }

// makeInputs generates the graph for (scale, seed), a pool of poolSize
// sources, and the references for algos. RMAT leaves many vertices isolated or
// with a tiny reach, so sources are drawn (seeded) from vertices that reach at
// least half of what the best-connected candidate reaches; a query from such a
// vertex does real work.
func makeInputs(scale int, seed uint64, poolSize int, algos ...string) (*inputs, error) {
	in := &inputs{seed: seed, scale: scale, ref: map[string][][]int64{}, seqMs: map[string][]float64{}, seqP50: map[string]float64{}}
	in.n, in.edges = declpat.RMAT(scale, edgeFactor, weights, seed)
	outDeg := make([]int32, in.n)
	for _, e := range in.edges {
		outDeg[e.Src]++
	}
	r := rng(seed, 1)
	perm := r.Perm(in.n)
	type cand struct {
		v     declpat.Vertex
		lvl   []int64 // seq.BFS from v: decides the reach, and is the BFS reference
		bfsMs float64
		reach int
	}
	// Examine candidates in seeded order until the pool fills. The reach
	// threshold needs a yardstick first: the best of the first few.
	var cands []cand
	best := 0
	for _, pv := range perm {
		v := declpat.Vertex(pv)
		if outDeg[v] == 0 {
			continue
		}
		t0 := time.Now()
		lvl := seq.BFS(in.n, in.edges, v)
		bfsMs := ms(time.Since(t0))
		reach := 0
		for _, l := range lvl {
			if l != seq.Inf {
				reach++
			}
		}
		cands = append(cands, cand{v, lvl, bfsMs, reach})
		best = max(best, reach)
		good := 0
		for _, c := range cands {
			if 2*c.reach >= best {
				good++
			}
		}
		if good >= poolSize && len(cands) >= poolSize+8 {
			break
		}
	}
	var levels [][]int64
	var bfsMs []float64
	for _, c := range cands {
		if 2*c.reach >= best && len(in.pool) < poolSize {
			in.pool = append(in.pool, c.v)
			levels = append(levels, c.lvl)
			bfsMs = append(bfsMs, c.bfsMs)
		}
	}
	if len(in.pool) < poolSize {
		return nil, fmt.Errorf("scale %d seed %d: only %d of %d sources reach half the graph", scale, seed, len(in.pool), poolSize)
	}
	in.reachEdges = make([]float64, poolSize)
	for i, lvl := range levels {
		for _, e := range in.edges {
			if lvl[e.Src] != seq.Inf {
				in.reachEdges[i]++
			}
		}
	}
	for _, algo := range algos {
		refs := make([][]int64, poolSize)
		for i, src := range in.pool {
			switch algo {
			case algoBFS:
				refs[i] = levels[i]
				in.seqMs[algo] = append(in.seqMs[algo], bfsMs[i])
			case algoSSSP:
				t0 := time.Now()
				refs[i] = seq.Dijkstra(in.n, in.edges, src)
				in.seqMs[algo] = append(in.seqMs[algo], ms(time.Since(t0)))
			default:
				return nil, fmt.Errorf("no sequential reference for %q", algo)
			}
			for v, d := range refs[i] {
				if d == seq.Inf {
					refs[i][v] = declpat.Inf
				}
			}
		}
		in.ref[algo] = refs
		in.seqP50[algo] = median(in.seqMs[algo])
	}
	sr := rng(seed, 2)
	for pass := 0; pass < 64; pass++ {
		in.script = append(in.script, sr.Perm(poolSize)...)
	}
	return in, nil
}

// source returns the pool index the i-th request of a script walk uses.
func (in *inputs) source(i int) int { return in.script[i%len(in.script)] }

// next returns the pool index of the instance's next request: one cursor
// walks the script across all its clients.
func (in *inputs) next() int { return in.source(int(in.cursor.Add(1) - 1)) }

// xSeq expresses a latency as a multiple of the median single-thread
// sequential solve (internal/seq) of algo on this instance's graph, measured a
// moment before the instance ran. The host this runs on changes speed by up to
// a factor of two within minutes (measured: the same solve 20.8 … 40.8 ms over
// ten minutes, the sequential solve 2.7 … 5.2 ms beside it); the quotient of
// two times taken seconds apart does not, and it is also free of the
// difference in work between one seed's graph and another's.
func (in *inputs) xSeq(algo string, latMs float64) float64 { return ratio(latMs, in.seqP50[algo]) }

// recordSeq files the single-thread reference solve times of algo, the base of
// algorithms.seq_ratio and diag.seq_ms_p50.
func (in *inputs) recordSeq(rec *recorder, algo string) {
	for _, x := range in.seqMs[algo] {
		rec.sample("seq_ms", x)
	}
}

// matches reports whether got is the reference answer of algo from pool[i].
func (in *inputs) matches(algo string, i int, got []int64) bool {
	want := in.ref[algo][i]
	if len(got) != len(want) {
		return false
	}
	for v := range want {
		if got[v] != want[v] {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
