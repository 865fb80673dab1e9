package gputopdown

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"gputopdown/internal/serve"
)

// Profiling-as-a-service surface. The wire types, store and HTTP server
// live in internal/serve; this file re-exports them and
// supplies the one piece serve cannot own without an import cycle: the
// JobRunner that turns a JobRequest into a profiled Report via the library
// API. cmd/gpuprofd wires the two together.

// ServeAPIVersion is the daemon's wire-format version ("v1").
const ServeAPIVersion = serve.APIVersion

// Wire and server types of the job API, shared by the daemon, the CLIs'
// -remote mode, and library callers.
type (
	// JobRequest is the versioned submission body for POST /api/v1/jobs.
	JobRequest = serve.JobRequest
	// JobStatus is a job's lifecycle snapshot.
	JobStatus = serve.JobStatus
	// JobState is queued/running/succeeded/failed/cancelled.
	JobState = serve.JobState
	// JobReport is the versioned profiling result, the wire twin of
	// AppResult.
	JobReport = serve.Report
	// JobClient talks to a gpuprofd daemon over HTTP.
	JobClient = serve.Client
	// JobServer is the daemon: HTTP API, job store, worker pool.
	JobServer = serve.Server
	// JobServerOptions configures NewJobServer.
	JobServerOptions = serve.Options
)

// Job lifecycle states: queued → running → {succeeded, failed, cancelled}.
const (
	StateQueued    = serve.StateQueued
	StateRunning   = serve.StateRunning
	StateSucceeded = serve.StateSucceeded
	StateFailed    = serve.StateFailed
	StateCancelled = serve.StateCancelled
)

// NewJobServer builds a daemon server (and starts its worker pool); see
// serve.Options. Most callers want NewJobRunner's Run as Options.Runner.
func NewJobServer(opts JobServerOptions) (*JobServer, error) { return serve.New(opts) }

// maxProfilers bounds JobRunner's profiler cache. A cached profiler holds its
// replay cache and its idle devices — megabytes — and requests can name
// configurations without limit (sample_every is any positive integer), so
// past this many the least recently used profiler is evicted, taking both
// with it.
const maxProfilers = 8

// JobRunner executes job requests through the library API. It caches one
// Profiler per distinct request configuration, up to maxProfilers, so jobs
// with the same config share a replay cache and reuse devices (repeat
// submissions hit warm autotune and replay state, like repeated ProfileApp
// calls on one Profiler).
type JobRunner struct {
	defaultGPU string
	base       []Option

	mu        sync.Mutex
	profilers map[string]*Profiler
	recent    []string // profilers' keys, least recently used first
}

// NewJobRunner returns a runner whose jobs default to the given device id
// ("gtx1070", "rtx4000") when the request leaves gpu empty. base options
// (e.g. WithLogger, WithObserver) apply to every profiler it builds, before
// request-derived options.
func NewJobRunner(defaultGPU string, base ...Option) *JobRunner {
	return &JobRunner{
		defaultGPU: defaultGPU,
		base:       base,
		profilers:  make(map[string]*Profiler),
	}
}

// profilerFor returns the cached Profiler for the request's configuration,
// building it on first use and then evicting the least recently used one if
// more than maxProfilers are cached. The cache is keyed on the configuration
// the options resolve to, not on how the request spelled it: level 0 and 3,
// mode "" and "smpc", sample_every 0 and 1, and replay_cache unset and the
// base default all name the same Profiler (and the same warm replay cache).
func (jr *JobRunner) profilerFor(req *JobRequest) (*Profiler, error) {
	gpuID := req.GPU
	if gpuID == "" {
		gpuID = jr.defaultGPU
	}
	spec, ok := LookupGPU(gpuID)
	if !ok {
		return nil, fmt.Errorf("gputopdown: unknown gpu %q", gpuID)
	}
	opts := append([]Option(nil), jr.base...)
	if req.Level > 0 {
		opts = append(opts, WithLevel(req.Level))
	}
	if req.Mode == "hwpm" {
		opts = append(opts, WithHWPM())
	}
	if req.RawEquations {
		opts = append(opts, WithRawEquations())
	}
	if req.SampleEvery > 0 {
		opts = append(opts, WithSampling(req.SampleEvery))
	}
	if req.ReplayCache != nil {
		opts = append(opts, WithReplayCache(*req.ReplayCache))
	}
	// Construction is pure and cheap, so build first and key on the result.
	p, err := NewProfilerE(spec, opts...)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%s|%t|%d|%t",
		gpuID, p.Level(), p.mode, p.normalize, max(p.sampleEvery, 1), p.cacheOn)

	jr.mu.Lock()
	defer jr.mu.Unlock()
	if cached, ok := jr.profilers[key]; ok {
		i := slices.Index(jr.recent, key)
		jr.recent = append(slices.Delete(jr.recent, i, i+1), key)
		return cached, nil
	}
	if len(jr.recent) == maxProfilers {
		delete(jr.profilers, jr.recent[0])
		jr.recent = slices.Delete(jr.recent, 0, 1)
	}
	jr.profilers[key] = p
	jr.recent = append(jr.recent, key)
	return p, nil
}

// Run is the serve.Runner: resolve the app, profile it under ctx, convert
// the result. Errors come back as they were produced, so errors.Is reaches
// ErrUnknownSuite / ErrUnknownApp / ErrKernelPanic and the context sentinels.
func (jr *JobRunner) Run(ctx context.Context, req *JobRequest) (*serve.Report, error) {
	app, err := GetApp(req.Suite, req.App)
	if err != nil {
		return nil, err
	}
	p, err := jr.profilerFor(req)
	if err != nil {
		return nil, err
	}
	res, err := p.ProfileApp(ctx, app)
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

// Report converts the result to its versioned wire form. Everything except
// WallSeconds is deterministic: two identical runs produce byte-identical
// reports once wall_seconds is zeroed (JobReport.Canonical does so; the
// golden corpus stores that form).
func (r *AppResult) Report() *JobReport {
	rep := &serve.Report{
		APIVersion:     serve.APIVersion,
		App:            r.App,
		Suite:          r.Suite,
		GPU:            r.GPU,
		Passes:         r.Passes,
		NativeCycles:   r.NativeCycles,
		ProfiledCycles: r.ProfiledCycles,
		WallSeconds:    r.WallSeconds,
		Aggregate:      r.Aggregate.Export(),
	}
	for _, k := range r.Kernels {
		rep.Kernels = append(rep.Kernels, serve.KernelReport{
			Kernel:     k.Kernel,
			Invocation: k.Invocation,
			Cycles:     k.Cycles,
			Analysis:   k.Analysis.Export(),
		})
	}
	for _, ke := range r.Failed {
		rep.Failed = append(rep.Failed, serve.KernelFailure{
			Kernel: ke.Kernel,
			Pass:   ke.Pass,
			Error:  ke.Err.Error(),
		})
	}
	return rep
}

// SubmitAndWait is the one-call remote path the CLIs' -remote flag uses:
// submit the request to the daemon at base, poll until terminal, and fetch
// the report on success.
func SubmitAndWait(ctx context.Context, base string, req *JobRequest, poll time.Duration) (*JobReport, error) {
	c := &JobClient{Base: base}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	id := st.ID
	if _, err := c.Wait(ctx, id, poll); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return c.Report(ctx, id)
}
