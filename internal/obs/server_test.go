package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer() (*Server, *Tracer, *Registry) {
	tr := NewTracer()
	reg := NewRegistry()
	return NewServer(tr, reg), tr, reg
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServerEndpoints smoke-tests every route of the observability handler.
func TestServerEndpoints(t *testing.T) {
	srv, tr, reg := testServer()
	reg.Counter("demo_total", "a demo counter", nil).Add(3)
	tr.Complete(PIDProfiler, 1, "replay", "pass", tr.Now(), nil)
	h := srv.Handler()

	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz: code %d body %q", rec.Code, rec.Body.String())
	}

	rec = get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Errorf("/metrics: code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	if !strings.Contains(rec.Body.String(), "demo_total 3") {
		t.Errorf("/metrics missing counter:\n%s", rec.Body.String())
	}

	rec = get(t, h, "/trace")
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Errorf("/trace is not valid trace-event JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("/trace has no events despite a recorded span")
	}

	rec = get(t, h, "/debug/pprof/")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/: code %d", rec.Code)
	}
	rec = get(t, h, "/debug/pprof/cmdline")
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: code %d", rec.Code)
	}
}

// TestServerNilComponents: endpoints over missing components answer 503, not
// panic, and /healthz still works.
func TestServerNilComponents(t *testing.T) {
	srv := NewServer(nil, nil)
	h := srv.Handler()
	for _, path := range []string{"/metrics", "/trace"} {
		if rec := get(t, h, path); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with nil component: code %d, want 503", path, rec.Code)
		}
	}
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz: code %d", rec.Code)
	}
}

// TestServerStartShutdown exercises the live listener: bind :0, scrape over
// real TCP, then shut down gracefully and verify the serve goroutine exits
// and the port closes.
func TestServerStartShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, _, reg := testServer()
	reg.Gauge("up", "server liveness", nil).Set(1)
	var srv Listener
	if err := srv.Start("127.0.0.1:0", svc.Handler(), nil); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address after Start")
	}
	if err := srv.Start("127.0.0.1:0", svc.Handler(), nil); err == nil {
		t.Error("second Start succeeded, want already-started error")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics over TCP: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "up 1") {
		t.Errorf("live scrape: code %d body %q", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v, want nil no-op", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("GET after Shutdown succeeded, want connection refused")
	}

	// The serve goroutine must be gone. Goroutine counts wobble (the HTTP
	// client keep-alive reaper, finished test helpers), so retry briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before || time.Now().After(deadline) {
			if n > before {
				t.Errorf("goroutines: %d before, %d after Shutdown", before, n)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestListenerDropsSlowHeaders: a client that sends part of a request's
// headers and then nothing is disconnected once the header timeout passes,
// instead of holding its connection open.
func TestListenerDropsSlowHeaders(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	var srv Listener
	if err := srv.Start("127.0.0.1:0", NewServer(nil, nil).Handler(), nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("connection with unfinished headers still open after 5 s: %v", err)
	}
}

// TestObservabilityConcurrency is the race-audit regression test: hammer the
// tracer, registry and flame from writer goroutines while scraping
// every read path concurrently. Run under -race (as CI does) this fails on
// any unsynchronized access.
func TestObservabilityConcurrency(t *testing.T) {
	srv, tr, reg := testServer()
	fl := NewFlame()
	c := reg.Counter("races_total", "", nil)
	g := reg.Gauge("races_gauge", "", nil)
	hist := reg.Histogram("races_hist", "", []float64{1, 10, 100}, nil)
	h := srv.Handler()

	const writers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				hist.Observe(float64(i % 150))
				tr.Complete(PIDProfiler, w, "replay", "pass", tr.Now(), nil)
				fl.Add(1, "gpu", "app", "k")
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				get(t, h, "/metrics")
				get(t, h, "/trace")
				_ = fl.Total()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != writers*iters {
		t.Errorf("races_total = %v, want %d", got, writers*iters)
	}
	if fl.Total() != writers*iters {
		t.Errorf("flame total = %v, want %d", fl.Total(), writers*iters)
	}
}
