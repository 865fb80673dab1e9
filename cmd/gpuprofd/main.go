// Command gpuprofd is the profiling-as-a-service daemon: it accepts
// profiling jobs over a versioned HTTP API, runs each once on a bounded
// worker pool with per-job deadlines (nothing is retried: the simulator is
// deterministic), and drains gracefully on SIGTERM/SIGINT (stop accepting,
// finish running jobs, exit 0).
//
//	gpuprofd -addr :8791 -workers 2 &
//	curl -s -X POST localhost:8791/api/v1/jobs \
//	     -d '{"suite":"altis","app":"gups"}'
//	curl -s localhost:8791/api/v1/jobs/job-000001
//	curl -s localhost:8791/api/v1/jobs/job-000001/report
//	curl -s -X DELETE localhost:8791/api/v1/jobs/job-000001
//
// The observability endpoints (/healthz, /metrics, /debug/pprof/) are mounted
// on the same port, so one scrape target covers both job metrics
// (gpuprofd_jobs_*) and profiler self-metrics. Job state is on /api/v1/jobs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gputopdown"
	"gputopdown/internal/cliflags"
	"gputopdown/internal/obs"
)

func main() {
	f := cliflags.New("gpuprofd")
	f.LogLevel = "info"
	f.Register(flag.CommandLine, "gpu", "log-level", "log-format")
	addr := flag.String("addr", ":8791", "listen address (host:0 picks a free port)")
	workers := flag.Int("workers", 2, "jobs run concurrently")
	queue := flag.Int("queue", 64, "max jobs waiting for a worker before submissions get 503")
	timeout := flag.Duration("timeout", 0, "default per-job deadline for jobs that do not set timeout_ms (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to let running jobs finish on shutdown before cancelling them")
	flag.Parse()

	// -gpu is the default device of jobs that do not set one; every job's
	// profiler logs to the daemon's logger and counts on its registry.
	f.Registry = gputopdown.NewMetricsRegistry()
	_, opts, err := f.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuprofd:", err)
		os.Exit(2)
	}

	// /metrics, /healthz and pprof beside the job API; no tracer, so /trace
	// answers 503.
	obsSrv := obs.NewServer(nil, f.Registry)
	obsSrv.SetLogger(f.Logger)

	runner := gputopdown.NewJobRunner(f.Job.GPU, opts...)
	srv, err := gputopdown.NewJobServer(gputopdown.JobServerOptions{
		Runner:         runner.Run,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		Registry:       f.Registry,
		Logger:         f.Logger,
		Obs:            obsSrv.Handler(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuprofd:", err)
		os.Exit(2)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "gpuprofd:", err)
		os.Exit(1)
	}
	fmt.Printf("gpuprofd listening on %s (api %s, default gpu %s, %d workers)\n",
		srv.Addr(), gputopdown.ServeAPIVersion, f.Job.GPU, *workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	fmt.Println("gpuprofd: shutdown signal received, draining")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "gpuprofd: drain:", err)
		os.Exit(1)
	}
	fmt.Println("gpuprofd: drained cleanly")
}
