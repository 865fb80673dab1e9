package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gputopdown/internal/obs"
)

// Runner executes one profiling job. The root package injects the real
// implementation (Profiler construction + ProfileApp + Report conversion);
// tests inject fakes. It must honour ctx: the daemon's deadline and
// cancellation guarantees are only as good as the runner's.
type Runner func(ctx context.Context, req *JobRequest) (*Report, error)

// ErrDraining reports a submission rejected because the server is shutting
// down; ErrQueueFull one rejected because the bounded queue is at capacity.
// Both map to HTTP 503.
var (
	ErrDraining  = errors.New("server draining")
	ErrQueueFull = errors.New("job queue full")
)

// Options configures a Server. Runner is required; everything else has a
// usable default.
type Options struct {
	Runner Runner
	// Workers is the worker-pool size (default 1): at most this many jobs
	// run concurrently, each internally fanning out replay passes.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64);
	// submissions beyond it get 503 rather than unbounded memory.
	QueueDepth int
	// DefaultTimeout applies to jobs that do not set timeout_ms; 0 means
	// no deadline.
	DefaultTimeout time.Duration
	// Clock stamps submission, start and finish times (default wall clock).
	Clock Clock
	// Registry receives job metrics when non-nil.
	Registry *obs.Registry
	// Logger logs job lifecycle (nil-safe).
	Logger *obs.Logger
	// Obs, when non-nil, is mounted at "/" so one port serves both the job
	// API and the observability endpoints (/healthz, /metrics, ...).
	Obs http.Handler

	// Deprecated: never read — a job is one run. bench/ still sets it; see
	// compat.go.
	DefaultMaxAttempts int
	// Deprecated: never read; see DefaultMaxAttempts.
	Backoff Backoff
}

// Clock abstracts time so tests stamp jobs from a fake clock.
type Clock interface{ Now() time.Time }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Server is the profiling job daemon: HTTP API, store, and worker pool.
// Construct with New (which starts the workers), serve via Start or mount
// Handler, and stop with Drain.
type Server struct {
	opts  Options
	clock Clock
	log   *obs.Logger
	store *Store
	mux   *http.ServeMux

	qmu      sync.Mutex
	queue    chan string
	qclosed  bool
	draining bool

	wg sync.WaitGroup

	ln obs.Listener // the HTTP listener, between Start and Drain

	mQueued    *obs.Gauge
	mRunning   *obs.Gauge
	mCompleted map[JobState]*obs.Counter
	mQueueLat  *obs.Histogram
	mRunLat    *obs.Histogram
	mConns     *obs.Counter
}

// New builds the server and starts its worker pool. The pool idles on the
// queue until jobs arrive; call Drain to stop it.
func New(opts Options) (*Server, error) {
	if opts.Runner == nil {
		return nil, errors.New("serve: Options.Runner is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Clock == nil {
		opts.Clock = realClock{}
	}
	s := &Server{
		opts:  opts,
		clock: opts.Clock,
		log:   opts.Logger.Component("serve"),
		store: NewStore(),
		queue: make(chan string, opts.QueueDepth),
	}
	s.initMetrics(opts.Registry)
	s.ln.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.mConns.Inc()
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	if opts.Obs != nil {
		s.mux.Handle("/", opts.Obs)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) initMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry() // throwaway sink, keeps the hot path branch-free
	}
	s.mQueued = reg.Gauge("gpuprofd_jobs_queued", "Jobs waiting for a worker.", nil)
	s.mRunning = reg.Gauge("gpuprofd_jobs_running", "Jobs currently executing.", nil)
	s.mCompleted = make(map[JobState]*obs.Counter)
	for _, st := range []JobState{StateSucceeded, StateFailed, StateCancelled} {
		s.mCompleted[st] = reg.Counter("gpuprofd_jobs_completed_total",
			"Jobs reaching a terminal state.", obs.Labels{"state": string(st)})
	}
	lat := []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}
	s.mQueueLat = reg.Histogram("gpuprofd_job_queue_seconds", "Submission-to-start latency.", lat, nil)
	s.mRunLat = reg.Histogram("gpuprofd_job_run_seconds", "Start-to-terminal latency.", lat, nil)
	s.mConns = reg.Counter("gpuprofd_http_connections_total", "HTTP connections the daemon's listener accepted.", nil)
}

// Handler returns the daemon's routing handler, independent of any
// listener — tests drive it through net/http/httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit enqueues a job directly (the in-process path the HTTP handler
// shares). The request must already carry any defaults the caller wants;
// validation failures wrap ErrBadRequest.
func (s *Server) Submit(req *JobRequest) (*JobStatus, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.APIVersion == "" {
		req.APIVersion = APIVersion
	}

	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		return nil, ErrQueueFull
	}
	id := s.store.Add(req, s.clock.Now())
	s.queue <- id
	s.mQueued.Add(1)
	st, _ := s.store.Status(id)
	if s.log.On(obs.LevelInfo) {
		s.log.Info("job queued", "job", id, "suite", req.Suite, "app", req.App)
	}
	return st, nil
}

func (s *Server) worker() {
	defer s.wg.Done()
	for id := range s.queue {
		s.runJob(id)
	}
}

func (s *Server) runJob(id string) {
	cctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	now := s.clock.Now()
	req, submittedAt, ok := s.store.claim(id, cancel, now)
	if !ok {
		// Cancelled while queued (DELETE or drain) — nothing to run.
		s.mQueued.Add(-1)
		s.mCompleted[StateCancelled].Inc()
		return
	}
	s.mQueued.Add(-1)
	s.mQueueLat.Observe(now.Sub(submittedAt).Seconds())
	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)

	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	rctx := context.Context(cctx)
	if timeout > 0 {
		tctx, tcancel := context.WithTimeout(cctx, timeout)
		defer tcancel()
		rctx = tctx
	}

	start := s.clock.Now()
	rep, err := s.opts.Runner(rctx, req)
	end := s.clock.Now()
	s.mRunLat.Observe(end.Sub(start).Seconds())

	state := StateSucceeded
	switch {
	case err == nil:
	case errors.Is(context.Cause(cctx), ErrJobCancelled), errors.Is(err, ErrJobCancelled):
		state = StateCancelled
	default:
		state = StateFailed
	}
	s.store.finish(id, state, rep, err, end)
	s.mCompleted[state].Inc()
	if s.log.On(obs.LevelInfo) {
		s.log.Info("job finished", "job", id, "state", string(state),
			"seconds", end.Sub(start).Seconds(), "err", fmt.Sprint(err))
	}
}

// Start listens on addr ("host:0" picks a free port; see Addr) and serves
// the handler until Drain.
func (s *Server) Start(addr string) error {
	if err := s.ln.Start(addr, s.mux, s.log); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if s.log.On(obs.LevelInfo) {
		s.log.Info("daemon listening", "addr", s.ln.Addr())
	}
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string { return s.ln.Addr() }

// Drain performs graceful shutdown: new submissions are rejected with 503,
// still-queued jobs are cancelled, running jobs are given until ctx
// expires to finish (then their contexts are cancelled and they are
// awaited), and finally the HTTP listener (if started) is shut down. Safe
// to call once; the worker pool is gone afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.qmu.Lock()
	already := s.draining
	s.draining = true
	if !s.qclosed {
		s.qclosed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	if already {
		return errors.New("serve: Drain called twice")
	}
	if n := s.store.cancelQueued(ErrDraining, s.clock.Now()); n > 0 && s.log.On(obs.LevelInfo) {
		s.log.Info("drain: cancelled queued jobs", "n", n)
	}

	idle := make(chan struct{})
	go func() { s.wg.Wait(); close(idle) }()
	select {
	case <-idle:
	case <-ctx.Done():
		n := s.store.cancelRunning(fmt.Errorf("drain deadline: %w", context.Cause(ctx)))
		if s.log.On(obs.LevelWarn) {
			s.log.Warn("drain deadline hit, cancelling running jobs", "n", n)
		}
		<-idle // cancellation lands within a pass; workers exit promptly
	}

	err := s.ln.Shutdown(context.Background())
	if s.log.On(obs.LevelInfo) {
		s.log.Info("daemon drained")
	}
	return err
}

// --- HTTP handlers ---

// writeJSON answers with v as one compact JSON document and a newline,
// encoded once and in full before the status line goes out, and sent with
// its Content-Length. A value encoding/json cannot encode (a NaN in a
// report) is therefore a 500 with an error body, never a 200 cut short; and
// a client reads every body whole, to its declared end, so its connection
// stays open for its next request.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+1))
	w.WriteHeader(code)
	w.Write(body)           //nolint:errcheck // client gone is the only failure
	io.WriteString(w, "\n") //nolint:errcheck // as above
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSubmitBytes bounds a submission's body. A real request is under 1 KiB;
// without a bound a client could park an arbitrarily long string in each of
// the up to maxTerminalJobs jobs the store keeps and echoes back.
const maxSubmitBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: request body above %d bytes", ErrBadRequest, maxSubmitBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	st, err := s.Submit(&req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrBadRequest):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.store.List()})
}

// maxStatusWait caps how long a status request's wait_ms holds it.
const maxStatusWait = 30 * time.Second

// handleStatus answers with the job's status. With wait_ms it first holds
// the request until the job is terminal, wait_ms (at most maxStatusWait)
// has passed or the client has gone, so a waiting client needs one request
// however long the job runs.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if q := r.URL.Query().Get("wait_ms"); q != "" {
		ms, err := strconv.ParseInt(q, 10, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: wait_ms %q is not a non-negative integer", ErrBadRequest, q))
			return
		}
		if done, err := s.store.done(id); err == nil {
			t := time.NewTimer(time.Duration(min(ms, maxStatusWait.Milliseconds())) * time.Millisecond)
			select {
			case <-done:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
	}
	st, err := s.store.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, st, err := s.store.Report(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if rep == nil {
		// Exists but not succeeded (yet): the status explains why.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.store.Cancel(r.PathValue("id"), s.clock.Now())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
