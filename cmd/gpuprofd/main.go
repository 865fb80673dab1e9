// Command gpuprofd is the profiling-as-a-service daemon: it accepts
// profiling jobs over a versioned HTTP API, runs them on a bounded worker
// pool with per-job deadlines and bounded retries, and drains gracefully
// on SIGTERM/SIGINT (stop accepting, finish running jobs, exit 0).
//
//	gpuprofd -addr :8791 -workers 2 &
//	curl -s -X POST localhost:8791/api/v1/jobs \
//	     -d '{"suite":"altis","app":"gups"}'
//	curl -s localhost:8791/api/v1/jobs/job-000001
//	curl -s localhost:8791/api/v1/jobs/job-000001/report
//	curl -s -X DELETE localhost:8791/api/v1/jobs/job-000001
//
// The observability endpoints (/healthz, /metrics, /trace, /api/progress,
// /debug/pprof/) are mounted on the same port, so one scrape target covers
// both job metrics (gpuprofd_jobs_*) and profiler self-metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gputopdown"
	"gputopdown/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8791", "listen address (host:0 picks a free port)")
	workers := flag.Int("workers", 2, "jobs run concurrently")
	queue := flag.Int("queue", 64, "max jobs waiting for a worker before submissions get 503")
	gpuID := flag.String("gpu", "rtx4000", "default device model for jobs that do not set gpu")
	timeout := flag.Duration("timeout", 0, "default per-job deadline for jobs that do not set timeout_ms (0 = none)")
	maxAttempts := flag.Int("max-attempts", 1, "default run attempts per job (1 = no retries)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max time to let running jobs finish on shutdown before cancelling them")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	logger, err := gputopdown.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpuprofd:", err)
		os.Exit(2)
	}
	if _, ok := gputopdown.LookupGPU(*gpuID); !ok {
		fmt.Fprintf(os.Stderr, "gpuprofd: unknown -gpu %q (want gtx1070 or rtx4000)\n", *gpuID)
		os.Exit(2)
	}

	registry := gputopdown.NewMetricsRegistry()
	progress := obs.NewProgress()
	obsSrv := obs.NewServer(nil, registry, progress)
	obsSrv.SetLogger(logger)

	runner := gputopdown.NewJobRunner(*gpuID,
		gputopdown.WithLogger(logger),
		gputopdown.WithObserver(nil, registry),
	)
	srv, err := gputopdown.NewJobServer(gputopdown.JobServerOptions{
		Runner:             runner.Run,
		Workers:            *workers,
		QueueDepth:         *queue,
		DefaultTimeout:     *timeout,
		DefaultMaxAttempts: *maxAttempts,
		Backoff:            gputopdown.DefaultJobBackoff(rand.Float64),
		Registry:           registry,
		Logger:             logger,
		Obs:                obsSrv.Handler(),
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
		srv.Addr(), gputopdown.ServeAPIVersion, *gpuID, *workers)

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
