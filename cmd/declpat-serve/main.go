// Command declpat-serve runs the resident query plane behind an HTTP API:
// one long-lived universe with an RMAT graph and pre-bound algorithm slots
// serves concurrent BFS / SSSP / PageRank queries submitted over HTTP, with
// admission control, per-query deadlines, same-algorithm fusion, and an
// OpenMetrics endpoint carrying per-query latency percentiles and queue
// depth.
//
// Usage:
//
//	declpat-serve -scale 14 -ranks 4 -threads 2 -listen 127.0.0.1:8080
//
// API:
//
//	POST /query              {"algo":"bfs|sssp|pagerank","source":N,"deadline_ms":D} → {"id":N}
//	GET  /query/{id}         lifecycle snapshot
//	GET  /query/{id}/wait    block until done (optional ?timeout_ms=N)
//	GET  /query/{id}/value?v=N   point lookup into the result vector
//	GET  /metrics            OpenMetrics: declpat_query_* + substrate families
//	GET  /healthz            liveness
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"declpat"
)

func main() {
	scale := flag.Int("scale", 12, "RMAT scale (2^scale vertices)")
	ef := flag.Int("edgefactor", 8, "edges per vertex")
	seed := flag.Uint64("seed", 1, "generator seed")
	ranks := flag.Int("ranks", 4, "simulated ranks")
	threads := flag.Int("threads", 2, "handler threads per rank")
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	fusion := flag.Int("fusion", 8, "max same-algorithm queries fused per sweep")
	queue := flag.Int("queue", 256, "admission queue depth")
	deadline := flag.Duration("deadline", 0, "default per-query deadline (0 = none)")
	retain := flag.Int("retain", 256, "finished results retained for lookups")
	flag.Parse()

	// The heap is the retention ring: -retain finished vectors of 8·n bytes,
	// pointer-free, each becoming garbage the moment a newer result evicts
	// it. At the runtime's default target that garbage may grow as large as
	// the ring again before it is collected. Marking pointer-free vectors
	// costs next to nothing, so collect when it reaches a quarter of the
	// live heap instead. A GOGC in the environment overrides this.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(25)
	}

	n, edges := declpat.RMAT(*scale, *ef, declpat.WeightSpec{Min: 1, Max: 100}, *seed)
	u := declpat.New(*ranks, declpat.WithThreads(*threads))
	dist := declpat.NewBlockDist(n, *ranks)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	svc := declpat.NewQueryService(eng,
		declpat.WithMaxFusion(*fusion),
		declpat.WithQueueDepth(*queue),
		declpat.WithDefaultDeadline(*deadline),
		declpat.WithRetain(*retain),
	)

	served := make(chan error, 1)
	go func() { served <- svc.Serve() }()

	srv := &http.Server{Addr: *listen, Handler: routes(svc, n)}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("declpat-serve: listen: %v", err)
	}
	log.Printf("declpat-serve: n=%d m=%d ranks=%d threads=%d listening on http://%s",
		n, len(edges), *ranks, *threads, ln.Addr())

	httpErr := make(chan error, 1)
	go func() { httpErr <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case <-stop:
		log.Printf("declpat-serve: shutting down")
	case err := <-served:
		// The universe exited underneath us (substrate fault): fail fast.
		log.Printf("declpat-serve: query plane exited: %v", err)
		served <- err
	case err := <-httpErr:
		log.Printf("declpat-serve: http server failed: %v", err)
		httpErr <- err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	svc.Stop()
	if err := <-served; err != nil {
		log.Fatalf("declpat-serve: query plane: %v", err)
	}
}

// routes wires the HTTP API over the query service of an n-vertex graph.
func routes(svc *declpat.QueryService, n int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) { handleSubmit(svc, n, w, r) })
	mux.HandleFunc("GET /query/{id}", func(w http.ResponseWriter, r *http.Request) { handleStatus(svc, w, r) })
	mux.HandleFunc("GET /query/{id}/wait", func(w http.ResponseWriter, r *http.Request) { handleWait(svc, w, r) })
	mux.HandleFunc("GET /query/{id}/value", func(w http.ResponseWriter, r *http.Request) { handleValue(svc, n, w, r) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		if err := svc.WriteOpenMetrics(w); err != nil {
			log.Printf("declpat-serve: /metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	return mux
}

// submitBody is the POST /query request payload.
type submitBody struct {
	Algo       string `json:"algo"`
	Source     int64  `json:"source"`
	DeadlineMS int64  `json:"deadline_ms"`
}

func handleSubmit(svc *declpat.QueryService, n int, w http.ResponseWriter, r *http.Request) {
	var body submitBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	algo, err := declpat.ParseQueryAlgo(body.Algo)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := checkVertex(body.Source, n); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	deadline, err := millis("deadline_ms", body.DeadlineMS)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t, err := svc.Submit(declpat.QueryRequest{
		Algo:     algo,
		Source:   declpat.Vertex(body.Source),
		Deadline: deadline,
	})
	if err != nil {
		httpError(w, submitCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": t.ID()})
}

func handleStatus(svc *declpat.QueryService, w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	st, err := svc.Status(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusJSON(st))
}

func handleWait(svc *declpat.QueryService, w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	t, found := svc.Ticket(id)
	if !found {
		httpError(w, http.StatusNotFound, declpat.ErrQueryUnknown)
		return
	}
	wait := t.Done()
	var timeout <-chan time.Time
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		d, err2 := millis("timeout_ms", v)
		if err != nil || err2 != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", ms))
			return
		}
		timeout = time.After(d)
	}
	select {
	case <-wait:
	case <-timeout:
		httpError(w, http.StatusRequestTimeout, errors.New("query still running"))
		return
	case <-r.Context().Done():
		return
	}
	st, err := svc.Status(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, statusJSON(st))
}

func handleValue(svc *declpat.QueryService, n int, w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	v, err := strconv.ParseInt(r.URL.Query().Get("v"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad vertex %q", r.URL.Query().Get("v")))
		return
	}
	if err := checkVertex(v, n); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	val, err := svc.Value(id, declpat.Vertex(v))
	if err != nil {
		httpError(w, valueCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "vertex": v, "value": val})
}

// statusJSON flattens a lifecycle snapshot for the wire.
func statusJSON(st declpat.QueryStatus) map[string]any {
	out := map[string]any{
		"id":     st.ID,
		"algo":   st.Algo.String(),
		"source": int64(st.Source),
		"state":  st.State,
	}
	if st.Err != nil {
		out["error"] = st.Err.Error()
	}
	if st.State == declpat.QueryStateDone {
		out["rounds"] = st.Rounds
		out["batch"] = st.Batch
		out["latency_ms"] = float64(st.Done.Sub(st.Queued).Microseconds()) / 1000
	}
	return out
}

// checkVertex range-checks a vertex id from the wire while it is still an
// int64: declpat.Vertex is 32 bits, and casting first would alias 2³²+v to v.
func checkVertex(v int64, n int) error {
	if v < 0 || v >= int64(n) {
		return fmt.Errorf("%w: %d not in [0, %d)", declpat.ErrQueryBadSource, v, n)
	}
	return nil
}

// millis converts a millisecond count from the wire to a duration, refusing
// a negative one or one past the largest duration.
func millis(name string, ms int64) (time.Duration, error) {
	if ms < 0 || ms > int64(math.MaxInt64/time.Millisecond) {
		return 0, fmt.Errorf("bad %s %d", name, ms)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// pathID parses the {id} path segment, answering 400 itself on failure.
func pathID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad query id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// submitCode maps Submit rejections to HTTP statuses.
func submitCode(err error) int {
	switch {
	case errors.Is(err, declpat.ErrQueryQueueFull), errors.Is(err, declpat.ErrQueryStopped):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// valueCode maps point-lookup failures to HTTP statuses.
func valueCode(err error) int {
	switch {
	case errors.Is(err, declpat.ErrQueryUnknown):
		return http.StatusNotFound
	case errors.Is(err, declpat.ErrQueryNotDone):
		return http.StatusConflict
	case errors.Is(err, declpat.ErrQueryBadSource):
		return http.StatusBadRequest
	default:
		// A failed query's stored error (deadline, cancel, stop).
		return http.StatusGone
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]any{"error": err.Error()})
}
