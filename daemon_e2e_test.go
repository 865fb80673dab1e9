package gputopdown

import (
	"bytes"
	"context"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gputopdown/internal/check"
	"gputopdown/internal/obs"
)

// startDaemon builds a real JobRunner-backed daemon on a free port and
// returns a client for it. The caller owns Drain (via cleanup).
func startDaemon(t *testing.T, workers int) (*JobServer, *JobClient) {
	t.Helper()
	return startDaemonWith(t, NewJobRunner("rtx4000"), workers)
}

// startDaemonWith is startDaemon around a caller-held runner, for tests that
// inspect the runner afterwards.
func startDaemonWith(t *testing.T, runner *JobRunner, workers int) (*JobServer, *JobClient) {
	t.Helper()
	srv, err := NewJobServer(JobServerOptions{
		Runner:  runner.Run,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck // tests that drained already get the double-drain error
	})
	return srv, &JobClient{Base: "http://" + srv.Addr()}
}

// waitState polls until the job reaches want (or any terminal state) and
// returns the status.
func waitState(t *testing.T, c *JobClient, id string, want JobState, timeout time.Duration) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want || st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonReportBitIdentical: a report fetched over the daemon's HTTP
// API equals the direct library run byte for byte once the only
// non-deterministic field (wall_seconds) is zeroed — the service layer
// adds no perturbation.
func TestDaemonReportBitIdentical(t *testing.T) {
	ctx := context.Background()
	app, err := GetApp("altis", "gups")
	if err != nil {
		t.Fatal(err)
	}
	direct := NewProfiler(QuadroRTX4000(), WithLevel(3))
	res, err := direct.ProfileApp(ctx, app)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Report()
	want.WallSeconds = 0

	_, c := startDaemon(t, 1)
	st, err := c.Submit(ctx, &JobRequest{Suite: "altis", App: "gups", Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("job did not succeed: %v", err)
	}
	got, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.WallSeconds = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("daemon report differs from direct library run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDaemonIgnoredEngineFields pins v1 wire compatibility for the removed
// engine selectors: a body carrying replay_workers, sim_workers or
// fast_forward still passes the strict decoder, yields the byte-identical
// canonical report, and shares the cached Profiler of the same job without
// them; a negative replay_workers or sim_workers is still a 400.
func TestDaemonIgnoredEngineFields(t *testing.T) {
	ctx := context.Background()
	runner := NewJobRunner("gtx1070")
	_, c := startDaemonWith(t, runner, 1)

	canonical := func(req *JobRequest) []byte {
		t.Helper()
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
			t.Fatalf("job %+v did not succeed: %v", req, err)
		}
		rep, err := c.Report(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, err := check.ReportJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	off := false
	plain := canonical(&JobRequest{Suite: "rodinia", App: "myocyte", Level: 1})
	for _, legacy := range []*JobRequest{
		{Suite: "rodinia", App: "myocyte", Level: 1, SimWorkers: 4, FastForward: &off},
		{Suite: "rodinia", App: "myocyte", Level: 1, ReplayWorkers: 4},
		{Suite: "rodinia", App: "myocyte", Level: 1, MaxAttempts: 3},
	} {
		if got := canonical(legacy); !bytes.Equal(plain, got) {
			t.Errorf("ignored fields of %+v changed the report:\n%s", legacy, check.DiffJSON(plain, got))
		}
	}
	for _, bad := range []*JobRequest{
		{Suite: "rodinia", App: "myocyte", SimWorkers: -1},
		{Suite: "rodinia", App: "myocyte", ReplayWorkers: -1},
		{Suite: "rodinia", App: "myocyte", MaxAttempts: -1},
	} {
		_, err := c.Submit(ctx, bad)
		if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("%+v = %v, want HTTP 400", bad, err)
		}
	}
	runner.mu.Lock()
	n := len(runner.profilers)
	runner.mu.Unlock()
	if n != 1 {
		t.Errorf("runner cached %d profilers for jobs differing only in ignored fields, want 1", n)
	}
}

// TestDaemonProgressUnavailable: there is no progress scoreboard — the live
// state of a run is the metrics registry. After a job has run, /api/progress
// is not a route (404) while /metrics and /healthz on the same port are live.
// Job state is what /api/v1/jobs is for.
func TestDaemonProgressUnavailable(t *testing.T) {
	ctx := context.Background()
	reg := NewMetricsRegistry()
	runner := NewJobRunner("gtx1070", WithObserver(nil, reg))
	srv, err := NewJobServer(JobServerOptions{
		Runner:   runner.Run,
		Workers:  1,
		Registry: reg,
		Obs:      obs.NewServer(nil, reg).Handler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(ctx) //nolint:errcheck
	base := "http://" + srv.Addr()
	if _, err := SubmitAndWait(ctx, base, &JobRequest{Suite: "rodinia", App: "myocyte"}, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{"/api/progress": http.StatusNotFound, "/metrics": http.StatusOK, "/healthz": http.StatusOK} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestJobRunnerKeysReplayCacheByValue: replay_cache is a *bool on the wire,
// so every decoded request carries its own pointer. Requests that agree on
// the pointed-to value must share one Profiler (and so one warm replay
// cache); unset means the runner's default (off here), so it shares with
// false, and true stays distinct.
func TestJobRunnerKeysReplayCacheByValue(t *testing.T) {
	jr := NewJobRunner("rtx4000")
	profiler := func(replayCache *bool) *Profiler {
		t.Helper()
		p, err := jr.profilerFor(&JobRequest{Suite: "altis", App: "gups", ReplayCache: replayCache})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	on1, on2, off := true, true, false
	p := profiler(&on1)
	if profiler(&on2) != p {
		t.Error("two replay_cache:true requests got different Profilers")
	}
	if len(jr.profilers) != 1 {
		t.Errorf("runner holds %d profilers after two replay_cache:true requests, want 1", len(jr.profilers))
	}
	if profiler(&off) == p || profiler(nil) == p {
		t.Error("replay_cache false or unset shares the replay_cache:true Profiler")
	}
	if len(jr.profilers) != 2 {
		t.Errorf("runner holds %d profilers for true/false/unset, want 2 (unset is the default, false)", len(jr.profilers))
	}
}

// TestJobRunnerKeysOnConfiguration: the profiler cache is keyed on what the
// request resolves to, not on how it is spelled — every default written out
// is the same Profiler as the default left out, and a request that differs in
// effect is not.
func TestJobRunnerKeysOnConfiguration(t *testing.T) {
	jr := NewJobRunner("rtx4000", WithReplayCache(true))
	on := true
	var want *Profiler
	for _, body := range []JobRequest{
		{Level: 0},
		{Level: 3, Mode: "smpc", SampleEvery: 1},
		{GPU: "rtx4000", ReplayCache: &on},
	} {
		p, err := jr.profilerFor(&body)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = p
		} else if p != want {
			t.Errorf("%+v resolved to a second Profiler", body)
		}
	}
	for _, body := range []JobRequest{{Level: 2}, {Mode: "hwpm"}, {SampleEvery: 2}, {RawEquations: true}, {GPU: "gtx1070"}} {
		if p, err := jr.profilerFor(&body); err != nil || p == want {
			t.Errorf("%+v resolved to (%p, %v), want a Profiler of its own", body, p, err)
		}
	}
	if _, err := jr.profilerFor(&JobRequest{Level: 7}); err == nil {
		t.Error("level 7 accepted")
	}
	if len(jr.profilers) != 6 {
		t.Errorf("runner holds %d profilers, want 6", len(jr.profilers))
	}
}

// TestJobRunnerBoundsProfilers: jobs naming 20 configurations (sample_every
// 1..20) leave at most maxProfilers cached, the least recently used evicted
// first; a repeat of a retained configuration runs on its profiler and hits
// its warm replay cache, and an evicted one starts over on a new profiler.
func TestJobRunnerBoundsProfilers(t *testing.T) {
	ctx := context.Background()
	jr := NewJobRunner("gtx1070", WithReplayCache(true))
	run := func(sampleEvery int) *Profiler {
		t.Helper()
		req := &JobRequest{Suite: "rodinia", App: "myocyte", SampleEvery: sampleEvery}
		p, err := jr.profilerFor(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jr.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
		if len(jr.profilers) > maxProfilers {
			t.Fatalf("runner holds %d profilers, bound %d", len(jr.profilers), maxProfilers)
		}
		return p
	}
	ran := map[int]*Profiler{}
	for n := 1; n <= 20; n++ {
		ran[n] = run(n)
	}
	// 13..20 are retained; repeating 13 makes 14 the least recently used.
	hits, _ := ran[13].cache.Stats()
	if run(13) != ran[13] {
		t.Fatal("a retained configuration got a new profiler")
	}
	if h, _ := ran[13].cache.Stats(); h <= hits {
		t.Errorf("repeating a retained configuration hit its replay cache %d times before, %d after", hits, h)
	}
	run(21)
	if len(jr.profilers) != maxProfilers {
		t.Errorf("runner holds %d profilers, want %d", len(jr.profilers), maxProfilers)
	}
	if p := run(13); p != ran[13] {
		t.Error("the most recently used configuration was evicted")
	}
	if p := run(14); p == ran[14] {
		t.Error("the least recently used configuration was not evicted")
	}
}

// TestDaemonCancelRunning: DELETE on a job mid-simulation lands within the
// 2s budget (cancellation is checked inside the simulation loop, not just
// between kernels) and the store records cancelled.
func TestDaemonCancelRunning(t *testing.T) {
	ctx := context.Background()
	_, c := startDaemon(t, 1)
	// gemm is one large kernel: seconds of simulation, so the cancel
	// provably interrupts rather than outraces it.
	st, err := c.Submit(ctx, &JobRequest{Suite: "altis", App: "gemm", Level: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning, 10*time.Second)

	cancelled := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, c, st.ID, StateCancelled, 2*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("job after DELETE = %s (%s), want cancelled", final.State, final.Error)
	}
	if d := time.Since(cancelled); d > 2*time.Second {
		t.Errorf("cancellation took %v, want under 2s", d)
	}
}

// TestDaemonDrainWaitsForRunningJob: Drain (the SIGTERM path in
// cmd/gpuprofd) lets the in-flight job finish, then stops cleanly without
// leaking goroutines.
func TestDaemonDrainWaitsForRunningJob(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := context.Background()
	srv, c := startDaemon(t, 1)
	st, err := c.Submit(ctx, &JobRequest{Suite: "altis", App: "gemm", Level: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning, 10*time.Second)

	dctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final, err := srv.Store().Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Errorf("running job after graceful drain = %s (%s), want succeeded", final.State, final.Error)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d before test: drain leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
