package main

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// minBeyond is the number of samples a reported percentile must leave beyond
// it: fewer, and the figure is one outlier's position, not a percentile.
const minBeyond = 10

// beyond reports how many of n samples lie strictly above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q) - 1
}

// rank is the 0-based nearest-rank index of the q-quantile among n sorted
// samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// highestPercentile returns the highest of p99/p95/p90/p50 that n samples
// support with at least minBeyond samples beyond it, or 0 when not even the
// median qualifies.
func highestPercentile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.50} {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, 0 when the base is 0 (a layer the workload never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recorder collects one workload's raw observations: named sample series,
// named running totals, and the operation tally. Safe for concurrent use (the
// closed-loop clients and the open-loop waiters record from their own
// goroutines).
type recorder struct {
	mu        sync.Mutex
	series    map[string][]float64
	totals    map[string]float64
	attempted int
	failed    int
	wrong     int
}

func newRecorder() *recorder {
	return &recorder{series: map[string][]float64{}, totals: map[string]float64{}}
}

func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.series[name] = append(r.series[name], v)
	r.mu.Unlock()
}

func (r *recorder) add(name string, d float64) {
	r.mu.Lock()
	r.totals[name] += d
	r.mu.Unlock()
}

// op tallies one attempted operation: failed covers refused, errored, timed
// out and wrongly answered ones alike; wrong additionally marks the run
// incorrect.
func (r *recorder) op(failed, wrong bool) {
	r.mu.Lock()
	r.attempted++
	if failed || wrong {
		r.failed++
	}
	if wrong {
		r.wrong++
	}
	r.mu.Unlock()
}

func (r *recorder) get(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[name]
}

// withPrefix returns every series whose name starts with prefix.
func (r *recorder) withPrefix(prefix string) [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]float64
	for name, xs := range r.series {
		if strings.HasPrefix(name, prefix) {
			out = append(out, xs)
		}
	}
	return out
}

func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[name]
}

func (r *recorder) p(name string, q float64) float64 { return quantile(r.get(name), q) }
