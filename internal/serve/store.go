package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// maxTerminalJobs bounds the finished jobs a store keeps, so a long-running
// daemon does not grow without bound: queued and running jobs are already
// bounded by Options.QueueDepth and Options.Workers. Past it, the job that
// finished longest ago is dropped and answers ErrUnknownJob from then on.
const maxTerminalJobs = 1024

// ErrUnknownJob reports a job ID the store does not hold: never submitted,
// or finished and dropped past maxTerminalJobs.
var ErrUnknownJob = errors.New("unknown job")

// ErrJobCancelled is the cancellation cause installed when a client DELETEs
// a job; it distinguishes client cancellation from a deadline when both
// surface as context errors inside the run.
var ErrJobCancelled = errors.New("job cancelled by client")

// job is the store's mutable record. All fields after the immutable header
// are guarded by the store mutex; snapshots are taken under it.
type job struct {
	id          string
	req         *JobRequest
	submittedAt time.Time

	state      JobState
	err        error
	startedAt  time.Time
	finishedAt time.Time

	// cancel aborts the run with ErrJobCancelled as cause; nil unless the
	// job is running.
	cancel context.CancelCauseFunc
	// report is set exactly once, on success.
	report *Report
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// Store is the in-memory job registry: submission order preserved, statuses
// snapshotted under a single mutex, safe for concurrent handlers/workers. It
// keeps at most maxTerminalJobs finished jobs.
type Store struct {
	mu    sync.Mutex
	seq   int
	jobs  map[string]*job
	order []string // every held job, in submission order
	// finished lists the held terminal jobs in the order they finished.
	finished []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{jobs: make(map[string]*job)}
}

// Add registers a new queued job and returns its ID.
func (st *Store) Add(req *JobRequest, now time.Time) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	id := fmt.Sprintf("job-%06d", st.seq)
	st.jobs[id] = &job{
		id:          id,
		req:         req,
		submittedAt: now,
		state:       StateQueued,
		done:        make(chan struct{}),
	}
	st.order = append(st.order, id)
	return id
}

// snapshot converts the record to its wire form. Caller holds st.mu.
func (j *job) snapshot() *JobStatus {
	s := &JobStatus{
		ID:          j.id,
		State:       j.state,
		MaxAttempts: 1,
		SubmittedAt: j.submittedAt,
		Request:     j.req,
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.startedAt.IsZero() {
		s.Attempt = 1
		t := j.startedAt
		s.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		s.FinishedAt = &t
	}
	return s
}

// terminate moves the job to a terminal state, wakes every request held on
// it, and drops the job that finished longest ago when more than
// maxTerminalJobs have. Caller holds st.mu.
func (st *Store) terminate(j *job, state JobState, err error, now time.Time) {
	j.state, j.err, j.finishedAt = state, err, now
	close(j.done)
	st.finished = append(st.finished, j.id)
	if len(st.finished) > maxTerminalJobs {
		old := st.finished[0]
		st.finished = st.finished[1:]
		delete(st.jobs, old)
		st.order = slices.DeleteFunc(st.order, func(id string) bool { return id == old })
	}
}

// done returns a channel that is closed once the job is terminal.
func (st *Store) done(id string) (<-chan struct{}, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.done, nil
}

// Status returns the wire status of one job.
func (st *Store) Status(id string) (*JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.snapshot(), nil
}

// List returns every job's status in submission order.
func (st *Store) List() []*JobStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*JobStatus, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id].snapshot())
	}
	return out
}

// Report returns the report of a succeeded job. ok is false when the job
// exists but has no report yet (not succeeded).
func (st *Store) Report(id string) (rep *Report, status *JobStatus, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.report, j.snapshot(), nil
}

// Cancel moves a queued job straight to cancelled, or signals a running
// job's context with ErrJobCancelled (the worker then records the terminal
// state). Cancelling a terminal job is a no-op. Returns the post-cancel
// status.
func (st *Store) Cancel(id string, now time.Time) (*JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch j.state {
	case StateQueued:
		st.terminate(j, StateCancelled, ErrJobCancelled, now)
	case StateRunning:
		if j.cancel != nil {
			j.cancel(ErrJobCancelled)
		}
	}
	return j.snapshot(), nil
}

// claim transitions a queued job to running and returns its request and
// submission time; ok is false when the job was cancelled while queued (and
// perhaps dropped since) or is otherwise not runnable, telling the worker to
// skip it.
func (st *Store) claim(id string, cancel context.CancelCauseFunc, now time.Time) (req *JobRequest, submittedAt time.Time, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.state != StateQueued {
		return nil, time.Time{}, false
	}
	j.state = StateRunning
	j.startedAt = now
	j.cancel = cancel
	return j.req, j.submittedAt, true
}

// finish records the terminal state of a run. The worker decides the state
// (succeeded / failed / cancelled); rep is non-nil only for success.
func (st *Store) finish(id string, state JobState, rep *Report, err error, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return
	}
	j.report = rep
	j.cancel = nil
	st.terminate(j, state, err, now)
}

// cancelQueued marks every still-queued job cancelled with cause — the
// drain path: workers skip them when their claim fails. Returns how many.
func (st *Store) cancelQueued(cause error, now time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.state == StateQueued {
			st.terminate(j, StateCancelled, cause, now)
			n++
		}
	}
	return n
}

// cancelRunning signals every running job's context with cause — the drain
// deadline path. Returns how many were signalled.
func (st *Store) cancelRunning(cause error) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel(cause)
			n++
		}
	}
	return n
}
