package query

import (
	"io"
	"strconv"
	"sync/atomic"

	"declpat/internal/obs"
)

// metrics is the query plane's own counter/histogram set, exported as the
// declpat_query_* OpenMetrics families alongside the universe's substrate
// families. All fields are atomics or internally-sharded histograms, so hot
// paths never take the service lock.
type metrics struct {
	admitted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	expired   atomic.Int64

	// latency holds per-algorithm end-to-end latency (submit → result,
	// admission wait included), nanosecond observations.
	latency [numAlgos]*obs.Histogram
	// batch records the fusion width of every executed sweep (and the
	// member count of every completed PageRank job).
	batch    *obs.Histogram
	maxBatch atomic.Int64
}

func (m *metrics) init() {
	for i := range m.latency {
		// 4µs .. ~34s, doubling.
		m.latency[i] = obs.NewHistogram(1, obs.ExpBounds(1<<12, 24)...)
	}
	// 1 .. 128 queries per sweep, doubling.
	m.batch = obs.NewHistogram(1, obs.ExpBounds(1, 8)...)
}

func (m *metrics) observeBatch(n int) {
	m.batch.Observe(0, int64(n))
	for {
		cur := m.maxBatch.Load()
		if int64(n) <= cur || m.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// ServiceStats is a plain-value snapshot of the query plane's metrics.
type ServiceStats struct {
	Admitted, Rejected, Completed, Failed, Canceled, Expired int64
	QueueDepth, Active                                       int
	// Latency maps algorithm names to end-to-end latency histograms
	// (nanoseconds).
	Latency map[string]obs.HistSnapshot
	// BatchSize is the fusion-width distribution; MaxBatch its high-water
	// mark.
	BatchSize obs.HistSnapshot
	MaxBatch  int64
}

// Stats snapshots the query plane's metrics.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Admitted:  s.met.admitted.Load(),
		Rejected:  s.met.rejected.Load(),
		Completed: s.met.completed.Load(),
		Failed:    s.met.failed.Load(),
		Canceled:  s.met.canceled.Load(),
		Expired:   s.met.expired.Load(),
		Latency:   make(map[string]obs.HistSnapshot, int(numAlgos)),
		BatchSize: s.met.batch.Snapshot(),
		MaxBatch:  s.met.maxBatch.Load(),
	}
	for a := Algo(0); a < numAlgos; a++ {
		st.Latency[a.String()] = s.met.latency[a].Snapshot()
	}
	s.mu.Lock()
	st.QueueDepth = len(s.queue)
	for _, j := range s.byID {
		if j.state == StateRunning {
			st.Active++
		}
	}
	s.mu.Unlock()
	return st
}

// WriteOpenMetrics writes the full exposition for a resident service: the
// declpat_query_* families (queue depth, admission counters, per-algorithm
// latency histograms and quantiles, fusion widths), the pattern engine's
// declpat_pattern_* per-action counters, then the universe's substrate
// families and the # EOF terminator. This is the
// payload behind declpat-serve's /metrics endpoint.
func (s *Service) WriteOpenMetrics(w io.Writer) error {
	st := s.Stats()
	om := obs.NewOMWriter(w)

	om.Family("declpat_query_queue_depth", "gauge", "Admitted queries waiting for a scheduling round.")
	om.SampleInt("declpat_query_queue_depth", nil, int64(st.QueueDepth))
	om.Family("declpat_query_active", "gauge", "Queries currently running (batch members and PageRank attachments).")
	om.SampleInt("declpat_query_active", nil, int64(st.Active))

	counters := []struct {
		name, help string
		v          int64
	}{
		{"declpat_query_admitted_total", "Queries admitted into the queue.", st.Admitted},
		{"declpat_query_rejected_total", "Submissions rejected at admission (full queue, bad request, stopped).", st.Rejected},
		{"declpat_query_completed_total", "Queries answered successfully.", st.Completed},
		{"declpat_query_failed_total", "Queries failed (canceled, expired, or stopped).", st.Failed},
		{"declpat_query_canceled_total", "Queries canceled via their ticket.", st.Canceled},
		{"declpat_query_deadline_expired_total", "Queries that missed their deadline.", st.Expired},
	}
	for _, c := range counters {
		om.Family(c.name, "counter", c.help)
		om.SampleInt(c.name, nil, c.v)
	}

	om.Family("declpat_query_latency_seconds", "histogram", "End-to-end query latency (submit to result) by algorithm.")
	for a := Algo(0); a < numAlgos; a++ {
		om.Hist("declpat_query_latency_seconds", []string{"algo", a.String()}, st.Latency[a.String()], 1e-9)
	}
	om.Family("declpat_query_latency_quantile_seconds", "gauge", "End-to-end query latency quantiles by algorithm (interpolated from the histogram).")
	for a := Algo(0); a < numAlgos; a++ {
		snap := st.Latency[a.String()]
		for _, q := range []float64{0.5, 0.95, 0.99} {
			om.Sample("declpat_query_latency_quantile_seconds",
				[]string{"algo", a.String(), "q", strconv.FormatFloat(q, 'g', -1, 64)},
				float64(snap.Quantile(q))*1e-9)
		}
	}

	om.Family("declpat_query_batch_size", "histogram", "Queries fused per executed sweep (and members per completed PageRank job).")
	om.Hist("declpat_query_batch_size", nil, st.BatchSize, 1)
	om.Family("declpat_query_batch_max", "gauge", "Largest fusion width observed.")
	om.SampleInt("declpat_query_batch_max", nil, st.MaxBatch)

	s.eng.WriteMetrics(om)
	if err := om.Flush(); err != nil {
		return err
	}
	return s.u.WriteOpenMetrics(w)
}
