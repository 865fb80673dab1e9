package gputopdown

import (
	"context"
	"fmt"
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

// JobRunner executes job requests through the library API. Each job runs on
// a Profiler of its own, built from the request; it holds no warm state,
// because the warm state is the process's: jobs on one GPU reuse its idle
// devices whatever their configuration, and replay_cache jobs share the one
// replay cache (WithReplayCache), so a repeat submission is served from it.
type JobRunner struct {
	defaultGPU string
	base       []Option
}

// NewJobRunner returns a runner whose jobs default to the given device id
// ("gtx1070", "rtx4000") when the request leaves gpu empty. base options
// (e.g. WithLogger, WithObserver) apply to every profiler it builds, before
// request-derived options.
func NewJobRunner(defaultGPU string, base ...Option) *JobRunner {
	return &JobRunner{defaultGPU: defaultGPU, base: base}
}

// JobOptions turns a request's profile settings (level, mode, raw equations,
// sampling, replay cache) into options: the one translation the daemon's
// JobRunner and the CLIs' flags share. A zero field or a nil ReplayCache
// leaves what the defaults and earlier options chose. A setting out of range
// fails JobRequest.ValidateSettings, the daemon's own check, and the error
// wraps serve.ErrBadRequest.
func JobOptions(req *JobRequest) ([]Option, error) {
	if err := req.ValidateSettings(); err != nil {
		return nil, fmt.Errorf("gputopdown: %w", err)
	}
	var opts []Option
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
	return opts, nil
}

// Run is the serve.Runner: resolve the app and the device, build the
// profiler from the runner's base options and the request's JobOptions,
// profile under ctx, convert the result. Errors come back as they were
// produced, so errors.Is reaches ErrUnknownSuite / ErrUnknownApp /
// ErrKernelPanic and the context sentinels.
func (jr *JobRunner) Run(ctx context.Context, req *JobRequest) (*serve.Report, error) {
	app, err := GetApp(req.Suite, req.App)
	if err != nil {
		return nil, err
	}
	gpuID := req.GPU
	if gpuID == "" {
		gpuID = jr.defaultGPU
	}
	spec, ok := LookupGPU(gpuID)
	if !ok {
		return nil, fmt.Errorf("gputopdown: unknown gpu %q", gpuID)
	}
	opts, err := JobOptions(req)
	if err != nil {
		return nil, err
	}
	p := NewProfiler(spec, append(jr.base[:len(jr.base):len(jr.base)], opts...)...)
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
