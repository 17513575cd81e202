package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"declpat"
)

// newService builds a small query service (not yet serving) and its HTTP
// routes.
func newService(tb testing.TB) (*declpat.QueryService, http.Handler, int) {
	tb.Helper()
	n, edges := declpat.RMAT(5, 4, declpat.WeightSpec{Min: 1, Max: 10}, 1)
	u := declpat.New(2, declpat.WithThreads(1))
	dist := declpat.NewBlockDist(n, 2)
	g := declpat.BuildGraph(dist, edges, declpat.GraphOptions{})
	eng := declpat.NewEngine(u, g, declpat.NewLockMap(dist, 1), declpat.DefaultPlanOptions())
	svc := declpat.NewQueryService(eng, declpat.WithMaxFusion(2), declpat.WithQueueDepth(1024))
	return svc, routes(svc, n), n
}

func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader([]byte(body))))
	return rec
}

// TestWireIntegersRangeChecked: vertex ids and durations arrive as JSON or
// query-string integers and are checked as int64, before they become a
// 32-bit declpat.Vertex or a time.Duration. A source of 2³²+3 used to run
// the query from vertex 3, a lookup of 2³²+3 to answer vertex 3's value, and
// a negative deadline to be admitted and then fail as expired.
func TestWireIntegersRangeChecked(t *testing.T) {
	svc, h, n := newService(t)
	served := make(chan error, 1)
	go func() { served <- svc.Serve() }()
	defer func() {
		svc.Stop()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	rec := serve(h, http.MethodPost, "/query", `{"algo":"bfs","source":3}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("valid query: %d %s", rec.Code, rec.Body)
	}
	var posted struct{ ID int64 }
	if err := json.Unmarshal(rec.Body.Bytes(), &posted); err != nil {
		t.Fatal(err)
	}
	if rec := serve(h, http.MethodGet, fmt.Sprintf("/query/%d/wait?timeout_ms=60000", posted.ID), ""); rec.Code != http.StatusOK {
		t.Fatalf("wait: %d %s", rec.Code, rec.Body)
	}

	value := fmt.Sprintf("/query/%d/value?v=", posted.ID)
	wait := fmt.Sprintf("/query/%d/wait?timeout_ms=", posted.ID)
	for _, tc := range []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodPost, "/query", `{"algo":"bfs","source":4294967299}`, http.StatusBadRequest},
		{http.MethodPost, "/query", `{"algo":"sssp","source":-1}`, http.StatusBadRequest},
		{http.MethodPost, "/query", fmt.Sprintf(`{"algo":"bfs","source":%d}`, n), http.StatusBadRequest},
		{http.MethodPost, "/query", `{"algo":"pagerank","source":4294967299}`, http.StatusBadRequest},
		{http.MethodPost, "/query", `{"algo":"bfs","source":3,"deadline_ms":-5}`, http.StatusBadRequest},
		{http.MethodPost, "/query", `{"algo":"bfs","source":3,"deadline_ms":9223372036854775807}`, http.StatusBadRequest},
		{http.MethodGet, value + "4294967299", "", http.StatusBadRequest},
		{http.MethodGet, value + "-1", "", http.StatusBadRequest},
		{http.MethodGet, value + strconv.Itoa(n), "", http.StatusBadRequest},
		{http.MethodGet, value + "3", "", http.StatusOK},
		{http.MethodGet, wait + "-5", "", http.StatusBadRequest},
		{http.MethodGet, wait + "9223372036854775807", "", http.StatusBadRequest},
		{http.MethodGet, wait + "60000", "", http.StatusOK},
	} {
		if rec := serve(h, tc.method, tc.target, tc.body); rec.Code != tc.want {
			t.Errorf("%s %s %s: %d %s, want %d", tc.method, tc.target, tc.body, rec.Code, rec.Body, tc.want)
		}
	}
}

// FuzzSubmitBody throws arbitrary request bodies at POST /query: the answer
// is never a 5xx, and an admitted query's source lies in [0, n) and equals
// the body's "source" number, read as the handler reads the JSON but without
// its int64 field.
func FuzzSubmitBody(f *testing.F) {
	for _, b := range []string{
		`{"algo":"bfs","source":3}`,
		`{"algo":"sssp","source":7,"deadline_ms":1000}`,
		`{"algo":"pagerank"}`,
		`{"algo":"bfs","source":4294967299}`,
		`{"algo":"bfs","source":-1,"deadline_ms":-5}`,
		`{"algo":"bfs","source":3} trailing`,
		`{"ALGO":"bfs","Source":2}`,
		`not json`,
		``,
	} {
		f.Add([]byte(b))
	}
	svc, h, n := newService(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		if svc.Depth() >= 1000 {
			// Nothing serves the queue: start over before it fills.
			svc, h, n = newService(t)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%q: %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusAccepted {
			return
		}
		var posted struct{ ID int64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &posted); err != nil {
			t.Fatalf("%q: admitted with answer %s: %v", body, rec.Body, err)
		}
		st, err := svc.Status(posted.ID)
		if err != nil {
			t.Fatalf("%q: admitted query %d unknown: %v", body, posted.ID, err)
		}
		var raw struct {
			Source json.Number `json:"source"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
			t.Fatalf("%q: admitted, but the body does not decode: %v", body, err)
		}
		want := int64(0) // an absent source is vertex 0
		if raw.Source != "" {
			if want, err = strconv.ParseInt(raw.Source.String(), 10, 64); err != nil {
				t.Fatalf("%q: admitted with source %s: %v", body, raw.Source, err)
			}
		}
		if got := int64(st.Source); got != want || got >= int64(n) {
			t.Fatalf("%q: admitted with source %d, body says %d, graph has %d vertices", body, got, want, n)
		}
	})
}
