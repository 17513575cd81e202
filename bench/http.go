package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"declpat"
)

// serve-http: a client of the real cmd/declpat-serve process, over HTTP.
// Closed loop: httpClients keep-alive connections, each repeating
// SSSP → wait → lookups → BFS → wait → lookups, every pageRankEvery-th query a
// PageRank. At most httpClients queries are ever in flight, so fusion is
// bypassed, and the service's reads (point lookups, status) run beside its
// writes (scheduling rounds) — the opposite use of the query layer from
// serve-burst.
const (
	serveHTTPName   = "serve-http"
	httpInstances   = 10
	httpClients     = 2
	lookupsPerQuery = 4
	pageRankEvery   = 20
	// httpSLOMs is the limit a BFS or SSSP query must be answered in, from
	// its send, to count in slo_ok_ratio.
	httpSLOMs = 300
)

func runHTTP(cfg config) (*result, error) {
	scale := serveScale
	if cfg.quick {
		scale = serveQuickScale
	}
	bin := filepath.Join(cfg.outDir, "declpat-serve")
	// Building the child is the toolchain's cost, not the system's: it stays
	// outside setup_s.
	if out, err := exec.Command("go", "build", "-o", bin, "declpat/cmd/declpat-serve").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build declpat/cmd/declpat-serve: %v\n%s", err, out)
	}
	instances := cfg.instances(httpInstances)
	run := newRun(cfg, instances)
	setupRec := newRecorder()
	var in *inputs // the last instance's, for the probes
	var inProcValue []float64
	for i := 0; i < instances; i++ {
		rec, tr := run.instance(i)
		var err error
		if in, err = makeInputs(scale, instanceSeed(cfg.seed, i), cfg.pool(), algoBFS, algoSSSP); err != nil {
			return nil, err
		}
		in.recordSeq(rec, algoSSSP)
		lookups, err := pageRankReference(in, setupRec)
		if err != nil {
			return nil, err
		}
		inProcValue = append(inProcValue, lookups...)
		httpInstance(bin, in, i, scale, run.perInstance, rec, tr)
	}
	res := run.finish(serveHTTPName)
	pl := run.layerRecorder()
	queries := pl.total("verified")
	res.set("gen.rmat_s", median(setupRec.get("gen.rmat_s")))
	res.set("distgraph.build_s", median(setupRec.get("distgraph.build_s")))
	res.set("pattern.bind_ms", median(setupRec.get("pattern.bind_ms")))
	res.set("algorithms.seq_ratio", ratio(pl.p("latency_ms", 0.5), median(pl.get("seq_ms"))))
	res.set("algorithms.mteps", ratio(pl.total("reach_edges"), 1e6*pl.total("measured_s")))
	res.set("algorithms.pagerank_round_ms", ratio(sum(pl.get("query.pagerank_ms")), pl.total("query.pagerank_rounds")))
	amPerOp(res, pl, queries)
	res.set("diag.bfs_latency_ms_p50", run.plain.p("bfs_latency_ms", 0.5))
	res.set("diag.lookup_us_p50", run.plain.p("lookup_us", 0.5))
	res.set("diag.lookup_us_p90", run.plain.p("lookup_us", 0.9))
	res.set("query.batch_width_mean", mean(pl.get("query.batch")))
	res.set("query.batch_width_max", quantile(pl.get("query.batch"), 1))
	res.set("query.epochs_per_query", ratio(pl.total("am.epochs"), queries))
	res.set("query.value_us_p50", median(inProcValue))
	res.set("query.pagerank_ms_p50", pl.p("query.pagerank_ms", 0.5))
	res.set("query.pagerank_rounds", ratio(pl.total("query.pagerank_rounds"), float64(len(pl.get("query.pagerank_ms")))))
	res.set("query.rejected", pl.total("query.rejected"))
	res.set("query.expired", pl.total("query.expired"))
	res.set("serve.start_s", median(pl.get("serve.start_s")))
	res.set("serve.post_ms_p50", pl.p("serve.post_ms", 0.5))
	res.set("serve.http_overhead_ms_p50", pl.p("serve.http_overhead_ms", 0.5))
	res.set("serve.http_overhead_ms_p90", pl.p("serve.http_overhead_ms", 0.9))
	res.set("serve.value_http_overhead_us", pl.p("lookup_us", 0.5)-median(inProcValue))
	res.set("serve.scrape_ms", median(pl.get("serve.scrape_ms")))
	if cfg.trace {
		probeSubstrate(res, cfg, in, false)
	}
	return res, nil
}

// pageRankReference files in.ref[algoPageRank]: the answer of an in-process
// service on the same graph (integer fixed point: bit-identical whatever the
// schedule). The same service prices an in-process point lookup, returned in
// µs, for serve.value_http_overhead_us; its set-up timings go to rec.
func pageRankReference(in *inputs, rec *recorder) ([]float64, error) {
	_, svc, stop := startService(in, rec, nil, 0, -1)
	t, err := svc.Submit(declpat.QueryRequest{Algo: declpat.QueryPageRank})
	if err != nil {
		return nil, fmt.Errorf("reference PageRank: %w", err)
	}
	pr, err := t.Wait()
	if err != nil {
		return nil, fmt.Errorf("reference PageRank: %w", err)
	}
	in.ref[algoPageRank] = [][]int64{pr.Values}
	lookups := timeLookups(svc, pr.ID, in.n)
	if err := stop(); err != nil {
		return nil, fmt.Errorf("reference service: %w", err)
	}
	return lookups, nil
}

var listenLine = regexp.MustCompile(`listening on (http://[0-9.:]+)`)

// child is one running declpat-serve process.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port, parsed from the child's log line
}

// startChild starts the server on an ephemeral port and waits until /healthz
// answers. The child receives only the generated inputs' seed and shape.
func startChild(bin string, seed uint64, scale int) (*child, error) {
	cmd := exec.Command(bin,
		"-scale", strconv.Itoa(scale), "-seed", strconv.FormatUint(seed, 10),
		"-ranks", strconv.Itoa(ranks), "-threads", strconv.Itoa(threads), "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // keep the pipe drained until the child exits
	}()
	select {
	case c.base = <-addr:
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("declpat-serve did not report its address")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("declpat-serve never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the child (SIGTERM, then kill) and waits for it.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait below reports it
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = c.cmd.Process.Kill()
		}
	}()
	_ = c.cmd.Wait() // exit status of a signalled child is not a measurement
	close(done)
}

// httpClient is one keep-alive connection's worth of closed-loop client.
type httpClient struct {
	hc   *http.Client
	base string
	in   *inputs
	rec  *recorder
	tr   *tracer
	inst string
}

// do issues one request inside a span and decodes the JSON answer; any
// transport error or non-2xx status is an error.
func (c *httpClient) do(span string, op int64, parent int, method, path string, body []byte, into any) error {
	sp := c.tr.begin(span, op, parent)
	defer c.tr.end(sp)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(data, into)
}

// query runs one query to its verified answer — POST, wait, then point lookups
// checked against the reference — and records the outcome.
func (c *httpClient) query(algo string, pi int, lookups []declpat.Vertex) {
	op := c.tr.newOp()
	t0 := time.Now()
	root := c.tr.beginAt("http.query", op, -1, t0)
	body, _ := json.Marshal(map[string]any{"algo": algo, "source": int64(c.in.pool[pi]), "deadline_ms": queryDeadline.Milliseconds()})
	var posted struct {
		ID int64 `json:"id"`
	}
	if err := c.do("http.post", op, root, http.MethodPost, "/query", body, &posted); err != nil {
		c.rec.op(true, false)
		return
	}
	tPosted := time.Now()
	var st struct {
		State     string  `json:"state"`
		Batch     int     `json:"batch"`
		Rounds    int     `json:"rounds"`
		LatencyMS float64 `json:"latency_ms"`
	}
	err := c.do("http.wait", op, root, http.MethodGet, fmt.Sprintf("/query/%d/wait?timeout_ms=%d", posted.ID, hardTimeout.Milliseconds()), nil, &st)
	done := time.Now()
	c.tr.endAt(root, done)
	if err != nil || st.State != declpat.QueryStateDone {
		c.rec.op(true, false)
		return
	}
	lat := ms(done.Sub(t0))

	ref := c.in.ref[algo][0]
	if algo != algoPageRank {
		ref = c.in.ref[algo][pi]
	}
	wrong, failed := false, false
	for _, v := range lookups {
		var val struct {
			Value int64 `json:"value"`
		}
		lop := c.tr.newOp()
		t := time.Now()
		if err := c.do("http.value", lop, -1, http.MethodGet, fmt.Sprintf("/query/%d/value?v=%d", posted.ID, v), nil, &val); err != nil {
			failed = true
			continue
		}
		c.rec.sample("lookup_us", us(time.Since(t)))
		if val.Value != ref[v] {
			wrong = true
		}
	}
	c.rec.op(failed, wrong)
	c.rec.sample("serve.post_ms", ms(tPosted.Sub(t0)))
	c.rec.sample("query.batch", float64(st.Batch))
	c.rec.add("am.busy_ms", st.LatencyMS/float64(max(st.Batch, 1))) // server-side queue + round, shared by a fused batch
	switch algo {
	case algoSSSP:
		c.rec.sample("latency_ms", lat)
		c.rec.sample("latency_x_seq", c.in.xSeq(algoSSSP, lat))
		c.rec.sample(c.inst, lat)
		c.rec.sample("serve.http_overhead_ms", lat-st.LatencyMS)
	case algoBFS:
		c.rec.sample("bfs_latency_ms", lat)
	case algoPageRank:
		c.rec.sample("query.pagerank_ms", lat)
		c.rec.add("query.pagerank_rounds", float64(st.Rounds))
	}
	if !failed && !wrong {
		c.rec.add("verified", 1)
		if algo != algoPageRank {
			c.rec.add("reach_edges", c.in.reachEdges[pi])
		}
		limit := float64(httpSLOMs)
		if algo == algoPageRank { // a long-running job: its limit is the request deadline
			limit = ms(queryDeadline)
		}
		if lat <= limit {
			c.rec.add("slo_ok", 1)
		}
	}
}

// loop is the closed loop of one client until the deadline.
func (c *httpClient) loop(id int, until time.Time) {
	r := rng(c.in.seed, uint64(100+id))
	lookups := func() []declpat.Vertex {
		vs := make([]declpat.Vertex, lookupsPerQuery)
		for i := range vs {
			vs[i] = declpat.Vertex(r.IntN(c.in.n))
		}
		return vs
	}
	for i := 1; time.Now().Before(until); i++ {
		algo := algoSSSP
		switch {
		case i%pageRankEvery == 0:
			algo = algoPageRank
		case i%2 == 0:
			algo = algoBFS
		}
		c.query(algo, c.in.next(), lookups())
	}
}

// httpInstance runs one fresh child: set-up is its start until /healthz
// answers plus one warm-up query per connection, then the clients run for
// budget.
func httpInstance(bin string, in *inputs, idx, scale int, budget time.Duration, rec *recorder, tr *tracer) {
	setupOp := tr.newOp()
	t0 := time.Now()
	setup := tr.beginAt("setup", setupOp, -1, t0)
	start := tr.begin("serve.start", setupOp, setup)
	ch, err := startChild(bin, in.seed, scale)
	tr.end(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: instance %d: %v\n", serveHTTPName, idx, err)
		rec.op(true, false)
		return
	}
	rec.sample("serve.start_s", time.Since(t0).Seconds())
	clients := make([]*httpClient, httpClients)
	for i := range clients {
		clients[i] = &httpClient{
			hc:   &http.Client{Timeout: 2 * hardTimeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			base: ch.base, in: in, rec: rec, tr: tr, inst: instSeries(idx),
		}
	}
	warm := tr.begin("warmup", setupOp, setup)
	for _, c := range clients {
		w := *c
		w.rec, w.tr = newRecorder(), nil
		w.query(algoSSSP, in.next(), nil)
	}
	begin := time.Now()
	tr.endAt(warm, begin)
	tr.endAt(setup, begin)
	rec.sample("setup_s", begin.Sub(t0).Seconds())

	scraper := clients[0]
	var m0 map[string]float64
	if tr != nil {
		m0 = scraper.scrape()
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(i, begin.Add(budget))
		}()
	}
	wg.Wait()
	rec.add("measured_s", time.Since(begin).Seconds())
	if tr != nil {
		addScrape(rec, m0, scraper.scrape())
	}
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if rss := peakRSSMB(strconv.Itoa(ch.cmd.Process.Pid)); rss > 0 {
		rec.sample("rss_mb", rss)
	}
	ch.stop()
}

// scrape reads the child's /metrics into name → value, summing over labels
// (nil on failure: the server-side rows then read 0).
func (c *httpClient) scrape() map[string]float64 {
	op := c.tr.newOp()
	t := time.Now()
	sp := c.tr.begin("http.scrape", op, -1)
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] += v
		}
	}
	c.tr.end(sp)
	c.rec.sample("serve.scrape_ms", ms(time.Since(t)))
	return out
}

// addScrape accumulates the server-side counter deltas between two scrapes:
// the same rows the in-process workloads read from Universe.Stats.
func addScrape(rec *recorder, before, after map[string]float64) {
	if before == nil || after == nil {
		return
	}
	d := func(name string) float64 { return after[name] - before[name] }
	rec.add("am.msgs", d("declpat_msgs_sent_total"))
	rec.add("am.envelopes", d("declpat_envelopes_total"))
	rec.add("am.wire_bytes", d("declpat_wire_bytes_total"))
	rec.add("am.retransmits", d("declpat_retransmits_total"))
	rec.add("am.epochs", d("declpat_epochs_total"))
	rec.add("am.link_deaths", d("declpat_link_deaths_total"))
	rec.add("am.decode_errors", d("declpat_decode_errors_total"))
	rec.add("am.query_mismatches", d("declpat_query_mismatches_total"))
	rec.add("query.rejected", d("declpat_query_rejected_total"))
	rec.add("query.expired", d("declpat_query_deadline_expired_total"))
}
