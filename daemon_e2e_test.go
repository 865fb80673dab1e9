package gputopdown

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gputopdown/internal/check"
	"gputopdown/internal/obs"
	"gputopdown/internal/sim"
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
// fast_forward still passes the strict decoder and yields the byte-identical
// canonical report of the same job without them; a negative replay_workers
// or sim_workers is still a 400.
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
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if path != "/metrics" {
			continue
		}
		// The job's profiler observed through the runner's base options.
		for _, series := range []string{"\nprofiler_passes_total ", "\nsim_launches_total ", "\nanalysis_total ",
			"\ngpuprofd_jobs_completed_total{state=\"succeeded\"} 1\n"} {
			if !strings.Contains(string(body), series) {
				t.Errorf("/metrics after one job lacks %q", strings.TrimSpace(series))
			}
		}
	}
}

// runCounted runs req through jr, whose profilers count on reg, and returns
// the job's canonical report and the replay-cache hits and misses it added.
func runCounted(t *testing.T, jr *JobRunner, reg *MetricsRegistry, req JobRequest) (report []byte, hits, misses float64) {
	t.Helper()
	h0, m0 := cacheLookups(reg)
	rep, err := jr.Run(context.Background(), &req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if report, err = check.ReportJSON(rep); err != nil {
		t.Fatal(err)
	}
	h1, m1 := cacheLookups(reg)
	return report, h1 - h0, m1 - m0
}

// TestJobRunnerKeysReplayCacheByValue: replay_cache is a *bool on the wire,
// so every decoded request carries its own pointer, and what a job does
// follows the pointed-to value. A repeat replay_cache:true job runs on a
// profiler of its own and is still served wholly from the process's replay
// cache, with the first job's report; false, or unset (the runner's default,
// off here), consults no cache.
func TestJobRunnerKeysReplayCacheByValue(t *testing.T) {
	reg := NewMetricsRegistry()
	jr := NewJobRunner("rtx4000", WithObserver(nil, reg))
	on1, on2, off := true, true, false
	emptyReplayResults()
	first, _, misses := runCounted(t, jr, reg, JobRequest{Suite: "rodinia", App: "myocyte", ReplayCache: &on1})
	if misses == 0 {
		t.Fatal("the first replay_cache:true job missed nothing on an empty cache")
	}
	repeat, hits, misses := runCounted(t, jr, reg, JobRequest{Suite: "rodinia", App: "myocyte", ReplayCache: &on2})
	if hits != 3 || misses != 0 {
		t.Errorf("the repeat replay_cache:true job hit %v and missed %v of its 3 launches, want 3 and 0", hits, misses)
	}
	if !bytes.Equal(first, repeat) {
		t.Errorf("the cache-served job's report differs:\n%s", check.DiffJSON(first, repeat))
	}
	for _, cache := range []*bool{&off, nil} {
		if _, hits, misses := runCounted(t, jr, reg, JobRequest{Suite: "rodinia", App: "myocyte", ReplayCache: cache}); hits+misses != 0 {
			t.Errorf("replay_cache %v: the job consulted the cache %v times, want 0", cache, hits+misses)
		}
	}
}

// TestJobRunnerKeysOnConfiguration: the replay cache is keyed on what a
// request resolves to, not on how it is spelled — level 0 and 3, mode "" and
// "smpc", sample_every 0 and 1, and replay_cache unset and the runner's
// default (on here) hit one another's entries — while a request that
// collects differently (another level's pass schedule, HWPM, another GPU)
// hits none of them: it looks its launches up as the first job did on an
// empty cache. A level outside 1..3 is rejected.
func TestJobRunnerKeysOnConfiguration(t *testing.T) {
	reg := NewMetricsRegistry()
	jr := NewJobRunner("rtx4000", WithReplayCache(true), WithObserver(nil, reg))
	on := true
	emptyReplayResults()
	_, coldHits, coldMisses := runCounted(t, jr, reg, JobRequest{Suite: "rodinia", App: "myocyte"})
	for _, body := range []JobRequest{
		{Level: 3, Mode: "smpc", SampleEvery: 1},
		{GPU: "rtx4000", ReplayCache: &on},
	} {
		body.Suite, body.App = "rodinia", "myocyte"
		if _, hits, misses := runCounted(t, jr, reg, body); hits != 3 || misses != 0 {
			t.Errorf("%+v hit %v and missed %v of its 3 launches, want 3 and 0", body, hits, misses)
		}
	}
	for _, body := range []JobRequest{{Level: 1}, {Mode: "hwpm"}, {GPU: "gtx1070"}} {
		body.Suite, body.App = "rodinia", "myocyte"
		if _, hits, misses := runCounted(t, jr, reg, body); hits != coldHits || misses != coldMisses {
			t.Errorf("%+v hit %v and missed %v launches, want %v and %v as on an empty cache", body, hits, misses, coldHits, coldMisses)
		}
	}
	if _, err := jr.Run(context.Background(), &JobRequest{Suite: "rodinia", App: "myocyte", Level: 7}); err == nil {
		t.Error("level 7 accepted")
	}
}

// TestJobRunnerBoundsProfilers: a JobRunner holds no profilers, so nothing it
// keeps grows with the configurations jobs name. Jobs naming 20 of them
// (sample_every 1..20, replay_cache on) all run on the pool's one idle
// device, and only sample_every 1 consults the replay cache: a sampling
// profiler uses none.
func TestJobRunnerBoundsProfilers(t *testing.T) {
	reg := NewMetricsRegistry()
	jr := NewJobRunner("gtx1070", WithReplayCache(true), WithObserver(nil, reg))
	emptyPool()
	emptyReplayResults()
	var devs []*sim.Device
	for n := 1; n <= 20; n++ {
		_, hits, misses := runCounted(t, jr, reg, JobRequest{Suite: "rodinia", App: "myocyte", SampleEvery: n})
		if consulted := hits+misses > 0; consulted != (n == 1) {
			t.Errorf("sample_every %d: the job consulted the replay cache %v times", n, hits+misses)
		}
		if devs == nil {
			devs = idle()
		}
	}
	if after := idle(); len(devs) != 1 || len(after) != 1 || after[0] != devs[0] {
		t.Errorf("jobs of 20 configurations left %d idle devices, want the first job's one", len(after))
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
	// The listener is closed; the handler still answers in process.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+st.ID, nil))
	var final JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &final); err != nil {
		t.Fatalf("status after drain (HTTP %d): %v", rec.Code, err)
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
