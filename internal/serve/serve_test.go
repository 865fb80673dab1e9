package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gputopdown/internal/obs"
)

// fakeClock is a Clock stuck at one instant, so job timestamps are exact.
type fakeClock struct{ now time.Time }

func (c fakeClock) Now() time.Time { return c.now }

func testReport(req *JobRequest) *Report {
	return &Report{
		APIVersion:     APIVersion,
		App:            req.App,
		Suite:          req.Suite,
		GPU:            "TEST GPU",
		Passes:         3,
		NativeCycles:   1000,
		ProfiledCycles: 3000,
		Kernels:        []KernelReport{{Kernel: "k", Invocation: 0, Cycles: 1000}},
	}
}

func okRunner(ctx context.Context, req *JobRequest) (*Report, error) {
	return testReport(req), nil
}

func request() *JobRequest { return &JobRequest{Suite: "altis", App: "gups"} }

func mustServer(t testing.TB, opts Options) *Server {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = okRunner
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // second Drain in tests that drained already
	})
	return s
}

// waitTerminal polls the store until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := s.store.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 5s", id, cur.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitPollReport drives the full happy path over real HTTP:
// submit → wait → report, and checks the terminal status metadata.
func TestSubmitPollReport(t *testing.T) {
	s := mustServer(t, Options{Workers: 2})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	c := &Client{Base: h.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, request())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Request.APIVersion != APIVersion {
		t.Fatalf("submit status %+v lacks id or echoed api_version", st)
	}

	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSucceeded || st.Attempt != 1 || st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("terminal status %+v, want succeeded attempt 1 with timestamps", st)
	}

	rep, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, testReport(request())) {
		t.Errorf("report round-trip mismatch:\ngot  %+v\nwant %+v", rep, testReport(request()))
	}

	if _, err := c.Report(ctx, "job-999999"); err == nil {
		t.Error("report of unknown job did not error")
	}
	if _, err := c.Status(ctx, "job-999999"); err == nil {
		t.Error("status of unknown job did not error")
	}
}

// countingTransport counts the GET requests a client makes.
type countingTransport struct{ gets atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet {
		c.gets.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWaitIsOneRequest: the server holds Wait's status request until the job
// ends, so waiting costs one request however long the job runs — not one
// per poll interval, which would make a client's load follow the job's
// duration.
func TestWaitIsOneRequest(t *testing.T) {
	release := make(chan struct{})
	s := mustServer(t, Options{Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
		<-release
		return testReport(req), nil
	}})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	tr := &countingTransport{}
	c := &Client{Base: h.URL, HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()

	st, err := c.Submit(ctx, request())
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	if st, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("Wait returned %s, want succeeded", st.State)
	}
	if n := tr.gets.Load(); n != 1 {
		t.Errorf("Wait over a 50 ms job at a 1 ms poll interval made %d status requests, want 1", n)
	}
}

// TestStatusWaitParameter: wait_ms is validated, ends at its own bound with
// the job still running, and does not hold a request for an unknown job.
func TestStatusWaitParameter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := mustServer(t, Options{Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
		<-release
		return testReport(req), nil
	}})
	st, err := s.Submit(request())
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) (int, *JobStatus, time.Duration) {
		t.Helper()
		rec := httptest.NewRecorder()
		start := time.Now()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+query, nil))
		var cur JobStatus
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &cur); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, &cur, time.Since(start)
	}
	for _, q := range []string{"x", "-1", "1.5"} {
		if code, _, _ := get(st.ID + "?wait_ms=" + q); code != http.StatusBadRequest {
			t.Errorf("wait_ms=%s answered %d, want 400", q, code)
		}
	}
	if code, _, took := get("job-999999?wait_ms=10000"); code != http.StatusNotFound || took > 5*time.Second {
		t.Errorf("unknown job with wait_ms answered %d after %v, want 404 at once", code, took)
	}
	code, cur, took := get(st.ID + "?wait_ms=20")
	if code != http.StatusOK || cur.State.Terminal() || took < 20*time.Millisecond {
		t.Errorf("wait_ms=20 on a blocked job answered %d, state %s, after %v; want 200, non-terminal, >= 20ms", code, cur.State, took)
	}
}

// TestSubmitValidation: schema violations come back as 400/ErrBadRequest
// without ever reaching the queue.
func TestSubmitValidation(t *testing.T) {
	s := mustServer(t, Options{})
	cases := []*JobRequest{
		{},                                    // no suite
		{Suite: "altis"},                      // no app
		{Suite: "a", App: "b", Level: 9},      // level out of range
		{Suite: "a", App: "b", Mode: "wrong"}, // bad mode
		{Suite: "a", App: "b", TimeoutMS: -1}, // negative timeout
		{Suite: "a", App: "b", TimeoutMS: 9223372036855},  // wraps to a negative duration
		{Suite: "a", App: "b", TimeoutMS: 18446744073710}, // wraps to 448µs
		{Suite: "a", App: "b", SimWorkers: -1},            // negative sim workers
		{Suite: "a", App: "b", APIVersion: "v2"},          // future version
	}
	for i, req := range cases {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d: Submit(%+v) = %v, want ErrBadRequest", i, req, err)
		}
	}
	if len(s.store.List()) != 0 {
		t.Error("invalid submissions reached the store")
	}
}

// TestSubmitBodyLimit: a submission body above maxSubmitBytes is refused
// with 413 naming the limit, and nothing of it reaches the store, however
// valid the request it spells.
func TestSubmitBodyLimit(t *testing.T) {
	s := mustServer(t, Options{})
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body)))
		return rec
	}
	huge := `{"suite":"` + strings.Repeat("a", maxSubmitBytes) + `","app":"gups"}`
	rec := post(huge)
	var e struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("413 body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, fmt.Sprint(maxSubmitBytes)) {
		t.Errorf("%d-byte submission: %d %q, want 413 naming %d bytes", len(huge), rec.Code, e.Error, maxSubmitBytes)
	}
	if n := len(s.store.List()); n != 0 {
		t.Errorf("oversized submission left %d jobs in the store", n)
	}
	if rec := post(`{"suite":"altis","app":"gups"}`); rec.Code != http.StatusAccepted {
		t.Errorf("ordinary submission: %d %s, want 202", rec.Code, rec.Body)
	}
}

// TestStoreKeepsBoundedFinishedJobs: a daemon that has run more jobs than
// maxTerminalJobs holds only that many, drops the ones that finished first
// (their status and report answer 404) and still serves the newest report.
func TestStoreKeepsBoundedFinishedJobs(t *testing.T) {
	const k = 5
	s := mustServer(t, Options{Workers: 1, QueueDepth: maxTerminalJobs + k})
	var ids []string
	for i := 0; i < maxTerminalJobs+k; i++ {
		st, err := s.Submit(&JobRequest{Suite: "altis", App: fmt.Sprintf("app%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	newest := ids[len(ids)-1]
	waitTerminal(t, s, newest)
	if n := len(s.store.List()); n != maxTerminalJobs {
		t.Errorf("store holds %d jobs after %d finished, want %d", n, len(ids), maxTerminalJobs)
	}
	get := func(path string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	for _, id := range ids[:k] {
		if code := get("/api/v1/jobs/" + id); code != http.StatusNotFound {
			t.Errorf("status of dropped %s = %d, want 404", id, code)
		}
		if code := get("/api/v1/jobs/" + id + "/report"); code != http.StatusNotFound {
			t.Errorf("report of dropped %s = %d, want 404", id, code)
		}
	}
	if code := get("/api/v1/jobs/" + ids[k] + "/report"); code != http.StatusOK {
		t.Errorf("report of the oldest kept job %s = %d, want 200", ids[k], code)
	}
	rep, _, err := s.store.Report(newest)
	if err != nil || rep == nil || rep.App != fmt.Sprintf("app%d", len(ids)-1) {
		t.Errorf("newest job's report = %+v, %v", rep, err)
	}
}

// terminalJobs counts the finished jobs the store holds.
func terminalJobs(st *Store) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.state.Terminal() {
			n++
		}
	}
	return n
}

// FuzzJobRequest sends arbitrary bytes as a submission body. The only
// answers are 202, 400, 413 and 503, never a panic, and a job the server
// accepted must be one Validate accepts. However many jobs the fuzzer gets
// through, the store never holds more than maxTerminalJobs finished ones.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"suite":"altis","app":"gups"}`,
		`{"suite":"rodinia","app":"bfs","level":3,"mode":"hwpm","sample_every":2,"timeout_ms":1000}`,
		`{"suite":"a","app":"b","replay_workers":4,"fast_forward":false,"max_attempts":2}`,
		`{"suite":"a","app":"b","level":9}`,
		`{"suite":"a","app":"b","bogus":1}`,
		`{"suite":"a","app":"b","timeout_ms":18446744073710}`,
		`{"suite":"a","app":"b","api_version":"v2"}`,
		`{"suite":"a"`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := mustServer(f, Options{QueueDepth: 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		case http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("202 body %q: %v", rec.Body, err)
			}
			if st.Request == nil {
				t.Fatalf("202 for %q echoes no request", body)
			}
			if err := st.Request.Validate(); err != nil {
				t.Fatalf("202 for %q echoes a request Validate rejects: %v", body, err)
			}
		default:
			t.Fatalf("%q: status %d %s", body, rec.Code, rec.Body)
		}
		if n := terminalJobs(s.store); n > maxTerminalJobs {
			t.Fatalf("store holds %d finished jobs, above the bound %d", n, maxTerminalJobs)
		}
	})
}

// TestCancelRunning: DELETE on a running job lands within the 2s budget
// and records the cancelled state with ErrJobCancelled as cause.
func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	s := mustServer(t, Options{
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			close(started)
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	st, err := s.Submit(request())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.store.Cancel(st.ID, time.Now()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		cur, _ := s.store.Status(st.ID)
		if cur.State.Terminal() {
			if cur.State != StateCancelled {
				t.Fatalf("cancelled job ended %s (%s), want cancelled", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s 2s after cancel", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelQueued: a job deleted before any worker claims it goes
// straight to cancelled and is skipped by the pool.
func TestCancelQueued(t *testing.T) {
	gate := make(chan struct{})
	ran := make(chan string, 8)
	s := mustServer(t, Options{
		Workers: 1,
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			ran <- req.App
			<-gate
			return testReport(req), nil
		},
	})
	first, err := s.Submit(request())
	if err != nil {
		t.Fatal(err)
	}
	<-ran // worker is now blocked inside job 1
	second, err := s.Submit(&JobRequest{Suite: "altis", App: "fft"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.store.Cancel(second.ID, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled immediately", st.State)
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.store.Status(first.ID); got.State != StateSucceeded {
		t.Errorf("first job = %s, want succeeded", got.State)
	}
	select {
	case app := <-ran:
		t.Errorf("cancelled queued job %s still ran", app)
	default:
	}
}

// TestDeadline: a per-job timeout_ms fails the job with
// context.DeadlineExceeded, not cancelled.
func TestDeadline(t *testing.T) {
	s := mustServer(t, Options{
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	st, err := s.Submit(&JobRequest{Suite: "altis", App: "gups", TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if cur := waitTerminal(t, s, st.ID); cur.State != StateFailed {
		t.Fatalf("timed-out job = %s, want failed", cur.State)
	}
}

// TestFailedJobRunsOnce: a job is one Runner call. A plain error fails the
// job with exactly that error text (no attempt prefix, no join); timestamps
// come from the injected Clock.
func TestFailedJobRunsOnce(t *testing.T) {
	clock := fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	var calls atomic.Int32
	s := mustServer(t, Options{
		Clock: clock,
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			calls.Add(1)
			return nil, fmt.Errorf("lookup %s: backend blew up", req.App)
		},
	})
	st, err := s.Submit(&JobRequest{Suite: "altis", App: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Attempt != 0 || st.MaxAttempts != 1 {
		t.Errorf("submit status = %s attempt %d/%d, want queued 0/1", st.State, st.Attempt, st.MaxAttempts)
	}
	cur := waitTerminal(t, s, st.ID)
	if cur.State != StateFailed || cur.Error != "lookup nope: backend blew up" {
		t.Errorf("job = %s %q, want failed with the runner's error text", cur.State, cur.Error)
	}
	if cur.Attempt != 1 || cur.MaxAttempts != 1 {
		t.Errorf("attempt %d/%d, want 1/1", cur.Attempt, cur.MaxAttempts)
	}
	if !cur.SubmittedAt.Equal(clock.now) || !cur.StartedAt.Equal(clock.now) || !cur.FinishedAt.Equal(clock.now) {
		t.Errorf("timestamps %v/%v/%v not from the injected clock", cur.SubmittedAt, cur.StartedAt, cur.FinishedAt)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("runner called %d times, want 1", n)
	}
	if rep, _, _ := s.store.Report(st.ID); rep != nil {
		t.Error("failed job has a report")
	}
}

// TestMaxAttemptsAcceptedAndIgnored: the v1 field max_attempts still passes
// the strict decoder but buys no second run; a negative value and an unknown
// field are 400; /metrics has no retry counter.
func TestMaxAttemptsAcceptedAndIgnored(t *testing.T) {
	reg := obs.NewRegistry()
	var calls atomic.Int32
	s := mustServer(t, Options{
		Registry: reg,
		Obs:      obs.NewServer(nil, reg).Handler(),
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			calls.Add(1)
			return nil, errors.New("fails every time")
		},
	})
	h := httptest.NewServer(s.Handler())
	defer h.Close()
	post := func(body string) (int, string) {
		resp, err := http.Post(h.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := post(`{"suite":"altis","app":"gups","max_attempts":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("max_attempts 3: HTTP %d %s, want 202", code, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	cur := waitTerminal(t, s, st.ID)
	if cur.State != StateFailed || cur.Attempt != 1 || cur.MaxAttempts != 1 {
		t.Errorf("job = %s attempt %d/%d, want failed 1/1", cur.State, cur.Attempt, cur.MaxAttempts)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("runner called %d times, want 1", n)
	}

	for _, bad := range []string{
		`{"suite":"altis","app":"gups","max_attempts":-1}`,
		`{"suite":"altis","app":"gups","backoff_ms":5}`,
	} {
		if code, body := post(bad); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d %s, want 400", bad, code, body)
		}
	}

	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(metrics), `gpuprofd_jobs_completed_total{state="failed"} 1`) {
		t.Errorf("/metrics lacks the failed-job count:\n%s", metrics)
	}
	if strings.Contains(string(metrics), "retries") {
		t.Errorf("/metrics still exposes a retry counter:\n%s", metrics)
	}
}

// TestQueueFull: submissions beyond QueueDepth are rejected, not queued
// unbounded.
func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := mustServer(t, Options{
		Workers:    1,
		QueueDepth: 1,
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			<-gate
			return testReport(req), nil
		},
	})
	// Worker takes the first; the single queue slot holds the second; the
	// third must bounce. Submitting the first may race the worker pickup,
	// so allow a brief settle.
	if _, err := s.Submit(request()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Submit(request()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(request()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
}

// TestDrainGraceful: Drain lets the running job finish, cancels queued
// jobs, rejects new submissions, and leaks no goroutines.
func TestDrainGraceful(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	started := make(chan struct{})
	s, err := New(Options{
		Workers: 1,
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			select {
			case <-started:
			default:
				close(started)
			}
			<-gate
			return testReport(req), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + s.Addr()}
	ctx := context.Background()

	running, err := c.Submit(ctx, request())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := c.Submit(ctx, &JobRequest{Suite: "altis", App: "fft"})
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(dctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Drain gate submissions
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a job was still running", err)
	default:
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if got, _ := s.store.Status(running.ID); got.State != StateSucceeded {
		t.Errorf("running job after drain = %s, want succeeded", got.State)
	}
	if got, _ := s.store.Status(queued.ID); got.State != StateCancelled {
		t.Errorf("queued job after drain = %s, want cancelled", got.State)
	}
	if _, err := s.Submit(request()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d before test: drain leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDrainDeadline: when running jobs outlive the drain context, their
// contexts are cancelled and Drain still returns with the pool stopped.
func TestDrainDeadline(t *testing.T) {
	s, err := New(Options{
		Runner: func(ctx context.Context, req *JobRequest) (*Report, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(request())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning := time.Now().Add(2 * time.Second)
	for {
		cur, _ := s.store.Status(st.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(waitRunning) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain after deadline: %v", err)
	}
	cur, _ := s.store.Status(st.ID)
	if !cur.State.Terminal() {
		t.Errorf("job after deadline drain = %s, want terminal", cur.State)
	}
}
