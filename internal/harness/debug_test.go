package harness

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerMetricsLifecycle(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	// Before a source is registered the scrape must 503, not serve an empty
	// document (a scraper can't tell "no universe yet" from "no metrics").
	code, _ := get(t, base+"/metrics")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("pre-registration /metrics = %d, want 503", code)
	}

	d.HandleMetrics(func(w io.Writer) error {
		_, err := io.WriteString(w, "declpat_up 1\n# EOF\n")
		return err
	})
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "declpat_up 1") || !strings.Contains(body, "# EOF") {
		t.Fatalf("post-registration scrape = %d %q", code, body)
	}

	// The diagnostic routes are mounted on the server's own mux.
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d %q", code, body[:min(len(body), 80)])
	}
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
}

func TestDebugServerShutdownReleasesListener(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	addr := d.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The port must be rebindable immediately: the listener must not live
	// until process exit.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebinding %s after Shutdown: %v", addr, err)
	}
	ln.Close()
}

func TestDebugServerConcurrentScrape(t *testing.T) {
	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback sockets unavailable: %v", err)
	}
	defer d.Close()
	var n atomic.Int64
	d.HandleMetrics(func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "declpat_scrapes %d\n# EOF\n", n.Add(1))
		return err
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				code, body := get(t, "http://"+d.Addr()+"/metrics")
				if code != http.StatusOK || !strings.Contains(body, "# EOF") {
					t.Errorf("scrape = %d %q", code, body)
					return
				}
				// Re-registering mid-scrape-storm must be safe.
				d.HandleMetrics(func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "declpat_scrapes %d\n# EOF\n", n.Add(1))
					return err
				})
			}
		}()
	}
	wg.Wait()
	if n.Load() < 40 {
		t.Fatalf("expected >= 40 scrapes, got %d", n.Load())
	}
}
