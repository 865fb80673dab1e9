// Package serve implements the profiling-as-a-service layer: versioned
// wire types, an in-memory job store, a bounded worker pool with
// deadline/cancellation propagation, and a graceful-drain HTTP server. A job
// is one Runner call: the simulator is deterministic, so a failed run fails
// identically every time and nothing is retried. The package is transport and
// policy; the actual profiling work is injected as a Runner so serve never
// imports the root package (which re-exports these types).
package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gputopdown/internal/core"
)

// APIVersion is the wire-format version every request and report carries.
// Breaking changes to the JSON schema bump this and mount a new route
// prefix; v1 fields are append-only.
const APIVersion = "v1"

// ErrBadRequest marks a request that failed validation. Test with
// errors.Is; the wrapping message says which field.
var ErrBadRequest = errors.New("bad request")

// JobRequest is the versioned submission body for POST /api/v1/jobs. The
// zero value of every optional field means "profiler default", so a minimal
// request is {"suite": "altis", "app": "gups"}.
type JobRequest struct {
	// APIVersion is optional on input ("" means current) but always set on
	// echo-back.
	APIVersion string `json:"api_version,omitempty"`

	// Suite and App select the workload (required).
	Suite string `json:"suite"`
	App   string `json:"app"`

	// GPU selects the simulated device by name; "" uses the daemon default.
	GPU string `json:"gpu,omitempty"`
	// Level is the Top-Down hierarchy depth 1..3; 0 uses the default.
	Level int `json:"level,omitempty"`
	// Mode is the counter collection mode ("smpc" or "hwpm"); "" default.
	Mode string `json:"mode,omitempty"`
	// RawEquations reports the paper's literal equations (8)-(14) instead
	// of the figure normalisation.
	RawEquations bool `json:"raw_equations,omitempty"`
	// SampleEvery profiles every n-th invocation of each kernel (paper
	// §VII); 0 profiles all.
	SampleEvery int `json:"sample_every,omitempty"`
	// ReplayWorkers, SimWorkers, FastForward and MaxAttempts are accepted
	// and ignored. They selected replay and simulation engines and a retry
	// policy that no longer exist; the fields remain so v1 clients that
	// still send them pass the strict decoder. A negative replay_workers,
	// sim_workers or max_attempts is still rejected. (bench/ also sets
	// ReplayWorkers; see compat.go.)
	ReplayWorkers int `json:"replay_workers,omitempty"`
	SimWorkers    int `json:"sim_workers,omitempty"`
	// ReplayCache toggles the replay cache; nil keeps the daemon default
	// (tri-state so "false" is distinguishable from unset).
	ReplayCache *bool `json:"replay_cache,omitempty"`
	FastForward *bool `json:"fast_forward,omitempty"` // ignored, see ReplayWorkers

	// TimeoutMS is the per-job deadline in milliseconds from the moment
	// the job starts running (not queue time); 0 uses the daemon default.
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	MaxAttempts int   `json:"max_attempts,omitempty"` // ignored, see ReplayWorkers
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds; a larger one
// would wrap to a negative (no deadline at all) or a tiny one.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// Validate checks the request against schema v1. Every failure wraps
// ErrBadRequest.
func (r *JobRequest) Validate() error {
	if r.APIVersion != "" && r.APIVersion != APIVersion {
		return fmt.Errorf("%w: api_version %q unsupported (want %q)", ErrBadRequest, r.APIVersion, APIVersion)
	}
	if r.Suite == "" {
		return fmt.Errorf("%w: suite is required", ErrBadRequest)
	}
	if r.App == "" {
		return fmt.Errorf("%w: app is required", ErrBadRequest)
	}
	if err := r.ValidateSettings(); err != nil {
		return err
	}
	if r.ReplayWorkers < 0 {
		return fmt.Errorf("%w: replay_workers %d negative", ErrBadRequest, r.ReplayWorkers)
	}
	if r.SimWorkers < 0 {
		return fmt.Errorf("%w: sim_workers %d negative", ErrBadRequest, r.SimWorkers)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("%w: timeout_ms %d negative", ErrBadRequest, r.TimeoutMS)
	}
	if r.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("%w: timeout_ms %d above %d, the longest time.Duration", ErrBadRequest, r.TimeoutMS, maxTimeoutMS)
	}
	if r.MaxAttempts < 0 {
		return fmt.Errorf("%w: max_attempts %d negative", ErrBadRequest, r.MaxAttempts)
	}
	return nil
}

// ValidateSettings checks the fields that configure the profile itself —
// level, mode and sample_every — and nothing about the workload or the job:
// it is the range check of every front door that turns a request into
// profiler options, the daemon's submissions (through Validate) and the
// CLIs' flags alike. Every failure wraps ErrBadRequest.
func (r *JobRequest) ValidateSettings() error {
	if r.Level < 0 || r.Level > core.Level3 {
		return fmt.Errorf("%w: level %d outside 0..%d", ErrBadRequest, r.Level, core.Level3)
	}
	switch r.Mode {
	case "", "smpc", "hwpm":
	default:
		return fmt.Errorf("%w: mode %q (want smpc or hwpm)", ErrBadRequest, r.Mode)
	}
	if r.SampleEvery < 0 {
		return fmt.Errorf("%w: sample_every %d negative", ErrBadRequest, r.SampleEvery)
	}
	return nil
}

// JobState is the lifecycle state of a job. Transitions are
// queued → running → {succeeded, failed, cancelled}, plus the short-circuit
// queued → cancelled for jobs deleted before a worker picks them up.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateSucceeded, StateFailed, StateCancelled:
		return true
	}
	return false
}

// JobStatus is the wire representation of a job's progress, returned by
// submit, status, and cancel endpoints.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Attempt is 0 while queued and 1 from the moment the job's one run
	// starts; MaxAttempts is always 1. Both predate the removal of retries
	// and stay for v1 readers.
	Attempt     int    `json:"attempt"`
	MaxAttempts int    `json:"max_attempts"`
	Error       string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	Request *JobRequest `json:"request"`
}

// KernelReport is one kernel invocation's slice of a Report.
type KernelReport struct {
	Kernel     string             `json:"kernel"`
	Invocation int                `json:"invocation"`
	Cycles     uint64             `json:"cycles"`
	Analysis   *core.AnalysisJSON `json:"analysis,omitempty"`
}

// KernelFailure records a kernel invocation that panicked and was isolated
// (the rest of the application completed without it).
type KernelFailure struct {
	Kernel string `json:"kernel"`
	Pass   int    `json:"pass"`
	Error  string `json:"error"`
}

// Report is the versioned profiling result for GET /api/v1/jobs/{id}/report.
// It carries everything AppResult does in wire-stable form; WallSeconds is
// the one field that varies between identical runs.
type Report struct {
	APIVersion     string             `json:"api_version"`
	App            string             `json:"app"`
	Suite          string             `json:"suite"`
	GPU            string             `json:"gpu"`
	Passes         int                `json:"passes"`
	NativeCycles   uint64             `json:"native_cycles"`
	ProfiledCycles uint64             `json:"profiled_cycles"`
	WallSeconds    float64            `json:"wall_seconds"`
	Kernels        []KernelReport     `json:"kernels"`
	Aggregate      *core.AnalysisJSON `json:"aggregate,omitempty"`
	Failed         []KernelFailure    `json:"failed,omitempty"`
}

// Canonical returns a copy of the report with WallSeconds zeroed — the one
// field that varies between identical runs. Everything else in the schema is
// deterministic, so canonical reports of identical runs are byte-identical
// when marshalled; the golden corpus (internal/check) stores this form. The
// receiver is not modified; nested kernels and analyses are shared read-only.
func (r *Report) Canonical() *Report {
	if r == nil {
		return nil
	}
	c := *r
	c.WallSeconds = 0
	return &c
}
