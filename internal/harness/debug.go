package harness

import (
	"context"
	"errors"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// DebugServer is the diagnostic HTTP server: pprof profiles under
// /debug/pprof/, expvar JSON under /debug/vars, and — when a metrics source
// is registered — an OpenMetrics/Prometheus scrape endpoint under /metrics.
// It owns its mux (so two servers in one process don't fight over the
// default mux's pprof routes), and it shuts down gracefully: Shutdown drains
// in-flight scrapes, Close drops them, and both release the listener.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
	mux *http.ServeMux

	mu      sync.Mutex
	metrics func(io.Writer) error
}

// NewDebugServer binds addr (":0" for an ephemeral port) and starts serving
// in a background goroutine. The caller owns shutdown: defer Shutdown or
// Close.
func NewDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{ln: ln, mux: http.NewServeMux()}
	// pprof registers on the default mux via its init; mount the handlers on
	// our own mux explicitly so this server is self-contained.
	d.mux.HandleFunc("/debug/pprof/", pprof.Index)
	d.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	d.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	d.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	d.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.mux.Handle("/debug/vars", expvar.Handler())
	d.mux.HandleFunc("/metrics", d.serveMetrics)
	d.srv = &http.Server{Handler: d.mux}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// HandleMetrics registers the /metrics payload writer — typically
// Universe.WriteOpenMetrics. Until one is registered, /metrics answers 503
// (so a scraper distinguishes "no universe yet" from an empty export).
// Callable at any time, including replacing the source mid-run.
func (d *DebugServer) HandleMetrics(fn func(io.Writer) error) {
	d.mu.Lock()
	d.metrics = fn
	d.mu.Unlock()
}

func (d *DebugServer) serveMetrics(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	fn := d.metrics
	d.mu.Unlock()
	if fn == nil {
		http.Error(w, "no metrics source registered", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if err := fn(w); err != nil {
		// Headers are gone; all we can do is abort the scrape visibly.
		panic(http.ErrAbortHandler)
	}
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests drain until ctx expires, then remaining connections
// are closed.
//
// The listener is closed here, not left to http.Server: Serve starts on a
// background goroutine, so a prompt Shutdown can beat the goroutine to the
// server's listener registry — http.Server.Shutdown would then close
// nothing and Serve would return without closing ln, leaking the port.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	d.ln.Close()
	err := d.srv.Shutdown(ctx)
	if errors.Is(err, net.ErrClosed) {
		err = nil // our own listener close surfacing back; the port is free
	}
	return err
}

// Close stops the server immediately, dropping in-flight requests.
func (d *DebugServer) Close() error {
	d.ln.Close()
	err := d.srv.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	return err
}
