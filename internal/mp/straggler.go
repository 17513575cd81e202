package mp

import (
	"fmt"
	"sync"

	"declpat/internal/obs"
)

// Live straggler detection: the coordinator folds the kernel-phase spans
// streamed in trace batches into per-(epoch, rank) busy time, and emits one
// imbalance summary per epoch once every rank has reported. Durations are
// clock-offset-free (a span's length is the same on every timebase), so the
// summary is exact even while the offset estimates are still converging.

// StragglerStat is one epoch's imbalance summary across the fleet.
type StragglerStat struct {
	Epoch     int64
	Ranks     int   // ranks that reported a kernel span
	MeanNS    int64 // mean per-rank kernel time
	MaxNS     int64 // slowest rank's kernel time
	MinNS     int64
	SlowRank  int     // global rank of the straggler
	Imbalance float64 // MaxNS / MeanNS (1.0 = perfectly balanced)
	PerRank   map[int]int64
}

func (s StragglerStat) String() string {
	return fmt.Sprintf("epoch %d: imbalance %.2f (slowest rank %d at %.2fms, mean %.2fms, %d ranks)",
		s.Epoch, s.Imbalance, s.SlowRank, float64(s.MaxNS)/1e6, float64(s.MeanNS)/1e6, s.Ranks)
}

// stragglerTracker accumulates streamed phase data. Owned by the coordinator
// event loop for folding; the mutex lets the launcher read latest stats from
// another goroutine (fleet /metrics).
type stragglerTracker struct {
	mu       sync.Mutex
	ranks    int
	perEpoch map[int64]map[int]int64
	emitted  map[int64]bool
	latest   StragglerStat
	has      bool
}

func newStragglerTracker(ranks int) *stragglerTracker {
	return &stragglerTracker{
		ranks:    ranks,
		perEpoch: map[int64]map[int]int64{},
		emitted:  map[int64]bool{},
	}
}

// fold consumes one trace batch's records and returns the summaries of any
// epochs completed by it (all ranks reported, not yet emitted). Only kernel
// spans count: they are the substrate's one-per-rank-per-epoch measure of
// epoch body time, while collect/build_csr/emit nest inside them and barrier
// measures waiting (a straggler's peers have long barriers — the straggler
// itself has the long kernel).
func (t *stragglerTracker) fold(recs []obs.Record) []StragglerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	touched := map[int64]bool{}
	for _, r := range recs {
		if r.Kind != "phase" || r.Type != obs.PhaseKernel.String() {
			continue
		}
		epoch := r.Arg2
		m := t.perEpoch[epoch]
		if m == nil {
			m = map[int]int64{}
			t.perEpoch[epoch] = m
		}
		m[r.Rank] += r.Dur
		touched[epoch] = true
	}
	var out []StragglerStat
	for epoch := range touched {
		if t.emitted[epoch] || len(t.perEpoch[epoch]) < t.ranks {
			continue
		}
		st := t.summarize(epoch)
		t.emitted[epoch] = true
		t.latest = st
		t.has = true
		out = append(out, st)
		delete(t.perEpoch, epoch)
	}
	return out
}

// summarize builds one epoch's stat. Caller holds mu.
func (t *stragglerTracker) summarize(epoch int64) StragglerStat {
	m := t.perEpoch[epoch]
	st := StragglerStat{Epoch: epoch, Ranks: len(m), PerRank: m, SlowRank: -1}
	var sum int64
	first := true
	for rank, ns := range m {
		sum += ns
		if ns > st.MaxNS {
			st.MaxNS = ns
			st.SlowRank = rank
		}
		if first || ns < st.MinNS {
			st.MinNS = ns
			first = false
		}
	}
	if len(m) > 0 {
		st.MeanNS = sum / int64(len(m))
	}
	if st.MeanNS > 0 {
		st.Imbalance = float64(st.MaxNS) / float64(st.MeanNS)
	}
	return st
}

// Latest returns the most recently completed epoch's summary.
func (t *stragglerTracker) Latest() (StragglerStat, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latest, t.has
}
