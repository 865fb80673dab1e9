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
	"os/signal"
	"strings"
	"syscall"

	"gputopdown/internal/cliflags"
	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/metrics"
	"gputopdown/internal/pmu"
)

func main() {
	f := cliflags.New("gpuprof")
	f.Register(flag.CommandLine, cliflags.Device, cliflags.Workload,
		"hwpm", "replay-cache", "checks", cliflags.Observability)
	metricList := flag.String("metrics", "", "comma-separated metric names")
	listMetrics := flag.Bool("list-metrics", false, "list the device's available metrics")
	flag.Parse()

	spec, err := f.Spec(f.Job.GPU)
	if err != nil {
		fatalf("%v", err)
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

	app, err := f.SelectedApp()
	if err != nil {
		fatalf("%v", err)
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
	sched, err := pmu.BuildSchedule(request)
	if err != nil {
		fatalf("%v", err)
	}
	mode := cupti.ModeSMPC
	if f.Job.Mode == "hwpm" {
		mode = cupti.ModeHWPM
	}

	// gpuprof is a client of the profiler middleware like the Top-Down tool
	// is: the Profiler assembles device, session and observers; this command
	// only chooses the counters and prints what comes back.
	p, _, err := f.Open()
	if err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("==PROF== profiling %s on %s (%s, %d passes per kernel)\n",
		app.ID(), spec.Name, mode, sched.NumPasses())
	col, err := p.Collect(ctx, app, request, func(l *kernel.Launch, rec *cupti.KernelRecord) error {
		// gpuprof has no Top-Down analysis to attribute within a kernel, so
		// the stacks stop at the kernel: gpu;suite/app;kernel cycles.
		f.Flame.Add(float64(rec.Cycles), spec.Name, app.ID(), rec.Kernel)
		fmt.Printf("%s (invocation %d, %d cycles, grid %s block %s)\n",
			rec.Kernel, rec.Invocation, rec.Cycles, l.Grid, l.Block)
		mctx := &metrics.Context{Spec: spec, Values: rec.Values}
		for _, n := range names {
			v, err := reg.Eval(n, mctx)
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
	for _, ke := range col.Failed {
		fmt.Fprintf(os.Stderr, "gpuprof: kernel skipped: %v\n", ke)
	}
	ratio := float64(col.ProfiledCycles) / float64(col.NativeCycles)
	fmt.Printf("==PROF== native %d cycles, profiled %d cycles (%.1fx)\n",
		col.NativeCycles, col.ProfiledCycles, ratio)
	if f.Job.ReplayCache != nil && *f.Job.ReplayCache {
		fmt.Printf("==PROF== replay cache: %d hits, %d misses, %d entries\n",
			col.CacheHits, col.CacheMisses, col.CacheEntries)
	}
	if f.Overhead {
		throughput := 0.0
		if col.WallSeconds > 0 {
			throughput = float64(col.ProfiledCycles) / col.WallSeconds
		}
		fmt.Printf("overhead: app=%s gpu=%q passes=%d native=%d profiled=%d ratio=%.1fx wall=%.3fs throughput=%.3g cyc/s\n",
			app.ID(), spec.Name, col.Passes, col.NativeCycles, col.ProfiledCycles,
			ratio, col.WallSeconds, throughput)
	}

	// Quiet-but-real use of the raw counter names, mirroring ncu's
	// --query-metrics: report which raw counters backed the request.
	raw := make([]string, len(request)) // CountersFor lists each counter once
	for i, id := range request {
		raw[i] = pmu.Name(id)
	}
	fmt.Printf("==PROF== raw counters: %s\n", strings.Join(raw, ", "))

	if err := f.Finish(p); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gpuprof: "+format+"\n", args...)
	os.Exit(1)
}
