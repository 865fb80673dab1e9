// Live observability service: an embedded HTTP server exposing the metrics
// registry as a Prometheus scrape target, the execution tracer as a Chrome
// trace snapshot, and net/http/pprof for continuous self-profiling of the
// profiler process.
//
// Two time domains meet here (see DESIGN.md §2): /debug/pprof profiles the
// profiler itself on the host wall clock, while /metrics and /trace carry the
// simulated-GPU accounting. The server is strictly read-only with respect to
// the run — every handler snapshots state guarded by the same mutexes the
// writers take, so a scrape under heavy profiling load is race-free and does
// not perturb results.
package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the embedded observability HTTP service. Build with NewServer
// and serve its Handler on a Listener, or mount it beside other routes (the
// job daemon does). The zero value is not useful.
type Server struct {
	tracer *Tracer
	reg    *Registry
	log    *Logger
}

// NewServer builds a server over the given (possibly nil) observability
// components. A nil component turns its endpoint into a 503 — the server is
// still useful for the rest.
func NewServer(tr *Tracer, reg *Registry) *Server {
	return &Server{tracer: tr, reg: reg}
}

// SetLogger attaches a logger (component "obs") for failed scrapes.
func (s *Server) SetLogger(l *Logger) { s.log = l.Component("obs") }

// Handler returns the server's routing handler, independent of any listener —
// what tests drive through net/http/httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.reg == nil {
		http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		s.log.Error("metrics scrape failed", "err", err)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.tracer == nil {
		http.Error(w, "no tracer attached", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	if err := s.tracer.WriteJSON(w); err != nil {
		s.log.Error("trace snapshot failed", "err", err)
	}
}

// Listener is the lifecycle of one HTTP listener, shared by every server in
// the module: Start binds an address and serves a handler in a background
// goroutine, Addr reports the bound address, Shutdown stops it. Header
// reads, responses and idle connections are bounded, so a client that never
// finishes its request headers, stops reading a response or keeps an unused
// connection is dropped instead of holding it open. The zero value is ready
// to Start.
type Listener struct {
	// ConnState, when set before Start, is the server's
	// http.Server.ConnState hook.
	ConnState func(net.Conn, http.ConnState)

	mu   sync.Mutex
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// The Listener's timeouts: constants that tests shorten.
var (
	// readHeaderTimeout bounds how long a Listener waits for a request's
	// headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a kept-alive connection with no request for this
	// long: longer than a Go client's 90 s, so the client closes first.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds a response from its request's headers to its last
	// byte, freeing the handler of a client that stops reading. It must
	// exceed the longest a handler waits before it writes: gpuprofd holds a
	// status request up to serve's maxStatusWait (30 s), and a pprof
	// profile takes 30 s by default.
	writeTimeout = time.Minute
)

// Start binds addr (":0" picks a free port; query it with Addr) and serves h
// in a background goroutine until Shutdown, reporting an abnormal end of the
// serve loop to log. Starting an already started listener is an error.
func (l *Listener) Start(addr string, h http.Handler, log *Logger) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.srv != nil {
		return fmt.Errorf("server already started on %s", l.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	l.ln = ln
	l.srv = &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
		WriteTimeout: writeTimeout, ConnState: l.ConnState}
	l.done = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		// ErrServerClosed is the normal Shutdown result.
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("serve loop failed", "addr", ln.Addr().String(), "err", err)
		}
	}(l.srv, l.done)
	return nil
}

// Addr returns the bound address ("" before Start).
func (l *Listener) Addr() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return ""
	}
	return l.ln.Addr().String()
}

// Shutdown gracefully stops the listener: it closes, in-flight requests
// drain (bounded by ctx), and the serve goroutine exits before Shutdown
// returns, so no goroutine leaks past it. Shutdown of a never started (or
// already stopped) listener is a no-op.
func (l *Listener) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	srv, done := l.srv, l.done
	l.srv, l.ln, l.done = nil, nil, nil
	l.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
