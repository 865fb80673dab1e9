// Command gpuprof is the nvprof/ncu-style raw profiler: it runs a benchmark
// application and reports user-selected profiler metrics per kernel
// invocation, dispatching to the nvprof metric set below compute capability
// 7.2 and the unified ncu metrics at or above it — exactly the middleware
// layer the Top-Down tool builds on (paper §II.B).
//
// Examples:
//
//	gpuprof -list-metrics -gpu rtx4000
//	gpuprof -gpu gtx1070 -suite rodinia -app bfs -metrics ipc,issued_ipc
//	gpuprof -gpu rtx4000 -suite altis -app gemm \
//	    -metrics smsp__inst_executed.avg.per_cycle_active
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gputopdown/internal/check"
	"gputopdown/internal/cupti"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/metrics"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

func main() {
	gpuID := flag.String("gpu", "rtx4000", "device model: gtx1070 or rtx4000")
	suite := flag.String("suite", "rodinia", "benchmark suite")
	appName := flag.String("app", "", "application to profile")
	metricList := flag.String("metrics", "", "comma-separated metric names")
	listMetrics := flag.Bool("list-metrics", false, "list the device's available metrics")
	hwpm := flag.Bool("hwpm", false, "collect via HWPM instead of SMPC")
	sms := flag.Int("sms", 0, "override the SM count (0 = full device)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write profiler self-metrics in Prometheus text format")
	traceBlocks := flag.Bool("trace-blocks", false, "include per-block dispatch instants in the trace (voluminous)")
	overhead := flag.Bool("overhead", false, "print a measured replay-overhead summary line")
	replayCache := flag.Bool("replay-cache", false, "memoize byte-identical kernel invocations instead of re-simulating them")
	checks := flag.Bool("checks", false, "assert simulator conservation laws during the run (internal/check); violations exit nonzero")
	serve := flag.String("serve", "", "serve live observability HTTP on this address (/metrics, /healthz, /trace, /api/progress, /debug/pprof/)")
	flameOut := flag.String("flame-out", "", "write per-kernel simulated-cycle stacks in collapsed format (open in speedscope)")
	logLevel := flag.String("log-level", "", "enable structured logging at this level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	spec, ok := gpu.Lookup(*gpuID)
	if !ok {
		fatalf("unknown GPU %q", *gpuID)
	}
	if *sms > 0 {
		spec = spec.WithSMs(*sms)
	}
	reg := metrics.ForCC(spec.Compute)

	if *listMetrics {
		fmt.Printf("%s metrics on %s (CC %s):\n", reg.Tool(), spec.Name, spec.Compute)
		for _, n := range reg.Names() {
			m, _ := reg.Lookup(n)
			fmt.Printf("  %-64s %s\n", n, m.Description)
		}
		return
	}

	if *appName == "" {
		fatalf("missing -app")
	}
	app, ok := workloads.Lookup(*suite, *appName)
	if !ok && *suite == "altis" && *appName == "gemm_autotune" {
		// Standalone workload: not in the suite list (it would skew the
		// suite-average figures) but reachable by name for cache experiments.
		app, ok = workloads.GemmAutotune(), true
	}
	if !ok {
		fatalf("unknown app %s/%s", *suite, *appName)
	}
	var names []string
	for _, n := range strings.Split(*metricList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fatalf("missing -metrics (see -list-metrics)")
	}
	request, err := reg.CountersFor(names)
	if err != nil {
		fatalf("%v", err)
	}

	dev := sim.NewDevice(spec)
	mode := cupti.ModeSMPC
	if *hwpm {
		mode = cupti.ModeHWPM
	}
	sess, err := cupti.NewSession(dev, request, mode)
	if err != nil {
		fatalf("%v", err)
	}
	if *replayCache {
		sess.SetCache(cupti.NewReplayCache(0))
	}
	var inv *check.Invariants
	if *checks {
		inv = check.New()
		sess.SetChecker(inv)
	}

	var tracer *obs.Tracer
	var registry *obs.Registry
	if *traceOut != "" || *serve != "" {
		tracer = obs.NewTracer()
		tracer.SetBlockDetail(*traceBlocks)
	}
	if *metricsOut != "" || *serve != "" {
		registry = obs.NewRegistry()
	}
	if tracer != nil || registry != nil {
		sess.SetObserver(tracer, registry)
	}
	var logger *obs.Logger
	if *logLevel != "" {
		lvl, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fatalf("%v", err)
		}
		logger = obs.NewLogger(os.Stderr, lvl, *logFormat)
		sess.SetLogger(logger)
	}
	var progress *obs.Progress
	if *serve != "" || logger != nil {
		progress = obs.NewProgress()
		progress.StartRun(1)
		progress.StartApp(*suite, *appName)
		sess.SetProgress(progress)
	}
	if *serve != "" {
		srv := obs.NewServer(tracer, registry, progress)
		srv.SetLogger(logger)
		if err := srv.Start(*serve); err != nil {
			fatalf("%v", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "gpuprof: observability HTTP on http://%s\n", srv.Addr())
	}
	var flame *obs.Flame
	if *flameOut != "" {
		flame = obs.NewFlame()
	}

	fmt.Printf("==PROF== profiling %s/%s on %s (%s, %d passes per kernel)\n",
		*suite, *appName, spec.Name, mode, sess.NumPasses())
	wallStart := time.Now()

	err = app.Execute(dev, func(l *kernel.Launch) error {
		rec, err := sess.Profile(l)
		if err != nil {
			return err
		}
		// gpuprof has no Top-Down analysis to attribute within a kernel, so
		// the stacks stop at the kernel: gpu;suite/app;kernel cycles.
		flame.Add(float64(rec.Cycles), spec.Name, *suite+"/"+*appName, rec.Kernel)
		fmt.Printf("%s (invocation %d, %d cycles, grid %s block %s)\n",
			rec.Kernel, rec.Invocation, rec.Cycles, l.Grid, l.Block)
		ctx := &metrics.Context{Spec: spec, Values: rec.Values}
		for _, n := range names {
			v, err := reg.Eval(n, ctx)
			if err != nil {
				return err
			}
			fmt.Printf("    %-64s %12.4f\n", n, v)
		}
		return nil
	})
	if err != nil {
		fatalf("%v", err)
	}
	progress.AppDone()
	if flame != nil {
		if err := flame.WriteFile(*flameOut); err != nil {
			fatalf("writing flamegraph: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gpuprof: wrote folded stacks to %s (import into https://speedscope.app)\n", *flameOut)
	}
	native, profiled := sess.Overhead()
	fmt.Printf("==PROF== native %d cycles, profiled %d cycles (%.1fx)\n",
		native, profiled, float64(profiled)/float64(native))
	if c := sess.Cache(); c != nil {
		hits, misses := c.Stats()
		fmt.Printf("==PROF== replay cache: %d hits, %d misses, %d entries\n",
			hits, misses, c.Len())
	}
	if *overhead {
		wall := time.Since(wallStart).Seconds()
		throughput := 0.0
		if wall > 0 {
			throughput = float64(profiled) / wall
		}
		fmt.Printf("overhead: app=%s/%s gpu=%q passes=%d native=%d profiled=%d ratio=%.1fx wall=%.3fs throughput=%.3g cyc/s\n",
			*suite, *appName, spec.Name, sess.NumPasses(), native, profiled,
			float64(profiled)/float64(native), wall, throughput)
	}
	if tracer != nil && *traceOut != "" {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gpuprof: wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
	if registry != nil && *metricsOut != "" {
		if err := registry.WriteFile(*metricsOut); err != nil {
			fatalf("writing metrics: %v", err)
		}
		fmt.Fprintf(os.Stderr, "gpuprof: wrote metrics to %s\n", *metricsOut)
	}

	// Quiet-but-real use of the raw counter names, mirroring ncu's
	// --query-metrics: report which raw counters backed the request.
	seen := map[pmu.CounterID]bool{}
	var raw []string
	for _, id := range request {
		if !seen[id] {
			seen[id] = true
			raw = append(raw, pmu.Name(id))
		}
	}
	fmt.Printf("==PROF== raw counters: %s\n", strings.Join(raw, ", "))

	if inv != nil {
		if err := inv.Err(); err != nil {
			fatalf("invariant checks failed:\n%v", err)
		}
		fmt.Fprintln(os.Stderr, "gpuprof: invariant checks passed")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpuprof: "+format+"\n", args...)
	os.Exit(1)
}
