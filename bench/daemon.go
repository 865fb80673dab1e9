package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"gputopdown"
	"gputopdown/internal/check"
)

// pollInterval is how often a client polls a job's status while it waits.
const pollInterval = 5 * time.Millisecond

// daemon is an in-process gpuprofd: the job server cmd/gpuprofd builds,
// listening on a loopback port, plus the transport its client's requests go
// through.
type daemon struct {
	srv       *gputopdown.JobServer
	base      string
	transport *countingTransport
}

// countingTransport counts the HTTP requests the client makes and the
// submissions the server refuses with 503.
type countingTransport struct {
	rt       *http.Transport
	requests atomic.Int64
	rejected atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	resp, err := t.rt.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusServiceUnavailable {
		t.rejected.Add(1)
	}
	return resp, err
}

// startDaemon builds the server as cmd/gpuprofd does at its flag defaults
// (an info-level logger and a metrics registry on every profiler and on the
// server, queue depth 64, one attempt per job), but for one worker where
// gpuprofd defaults to two: this host has two cores, and two simulations, a
// polling client and the garbage collector on them time the scheduler. The
// observability endpoints gpuprofd also mounts are left out; no job request
// reaches them.
func startDaemon(runner func(context.Context, *gputopdown.JobRequest) (*gputopdown.JobReport, error)) (*daemon, error) {
	logger, err := gputopdown.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	registry := gputopdown.NewMetricsRegistry()
	if runner == nil {
		runner = gputopdown.NewJobRunner(defaultGPU,
			gputopdown.WithLogger(logger),
			gputopdown.WithObserver(nil, registry),
		).Run
	}
	srv, err := gputopdown.NewJobServer(gputopdown.JobServerOptions{
		Runner:             runner,
		Workers:            1,
		QueueDepth:         64,
		DefaultMaxAttempts: 1,
		Backoff:            gputopdown.DefaultJobBackoff(rand.Float64),
		Registry:           registry,
		Logger:             logger,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	return &daemon{
		srv:       srv,
		base:      "http://" + srv.Addr(),
		transport: &countingTransport{rt: &http.Transport{}},
	}, nil
}

// client returns a job client whose requests the daemon's transport counts.
func (d *daemon) client() *gputopdown.JobClient {
	return &gputopdown.JobClient{Base: d.base, HTTP: &http.Client{Transport: d.transport}}
}

// stop drains the server and waits for its goroutines to exit.
func (d *daemon) stop() error {
	d.transport.rt.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		return fmt.Errorf("daemon: drain: %w", err)
	}
	return nil
}

// request is the op as a v1 job submission.
func (o op) request() *gputopdown.JobRequest {
	req := &gputopdown.JobRequest{Suite: o.Suite, App: o.App}
	if o.GPU != defaultGPU {
		req.GPU = o.GPU
	}
	if o.Workers > 1 {
		req.ReplayWorkers = o.Workers
	}
	if o.Cache {
		on := true
		req.ReplayCache = &on
	}
	return req
}

// jobSample is one job as its client and the server's timestamps saw it.
type jobSample struct {
	Op *boundOp
	// Latency is submit to report decoded, on the client's clock.
	Latency time.Duration
	// QueueWait and Run are submitted-to-started and started-to-finished on
	// the server's clock.
	QueueWait time.Duration
	Run       time.Duration
}

// runJob takes one job from submission to a verified report.
func (d *daemon) runJob(ctx context.Context, c *gputopdown.JobClient, h *harness, b *boundOp, rec *recorder) (opSample, jobSample, error) {
	// The client's spans go on lane 1, the server's view of its jobs on 2.
	const lane = 1
	call := func(parent int, name string, f func() error) error {
		s := rec.begin(parent, "serve", name, b.id, lane)
		defer rec.end(s)
		return f()
	}
	var st *gputopdown.JobStatus
	var rep *gputopdown.JobReport
	root := rec.begin(0, "bench", "job", b.id, lane)
	s, err := timed(func() error {
		err := call(root, "Client.Submit", func() (err error) {
			st, err = c.Submit(ctx, b.request())
			return err
		})
		if err != nil {
			return err
		}
		err = call(root, "Client.Wait", func() (err error) {
			st, err = c.Wait(ctx, st.ID, pollInterval)
			return err
		})
		if err != nil {
			return err
		}
		return call(root, "Client.Report", func() (err error) {
			rep, err = c.Report(ctx, st.ID)
			return err
		})
	})
	rec.end(root)
	if err != nil {
		return s, jobSample{}, fmt.Errorf("%s: %w", b.id, err)
	}
	job := jobSample{Op: b, Latency: s.Wall}

	if st.StartedAt != nil && st.FinishedAt != nil {
		job.QueueWait = st.StartedAt.Sub(st.SubmittedAt)
		job.Run = st.FinishedAt.Sub(*st.StartedAt)
		// The server's view of the job, on a lane of its own: the two spans
		// overlap the client's wait.
		rec.add(root, "serve", "queued", b.id, lane+1, st.SubmittedAt, *st.StartedAt)
		rec.add(root, "serve", "running", b.id, lane+1, *st.StartedAt, *st.FinishedAt)
	}
	data, err := check.ReportJSON(rep)
	if err != nil {
		return s, jobSample{}, fmt.Errorf("%s: render report: %w", b.id, err)
	}
	if err := h.verify(b, data, len(rep.Kernels)); err != nil {
		return s, jobSample{}, err
	}
	return s, job, nil
}
