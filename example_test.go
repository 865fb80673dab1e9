package gputopdown_test

import (
	"context"
	"fmt"

	"gputopdown"
)

// The godoc examples below run as tests, so the documented workflows can
// never rot. They use heavily downscaled devices to stay fast.

// ExampleProfiler_ProfileApp profiles one benchmark and reads the level-1
// hierarchy components.
func ExampleProfiler_ProfileApp() {
	spec := gputopdown.QuadroRTX4000().WithSMs(2)
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(1))

	app, _ := gputopdown.LookupApp("altis", "maxflops")
	res, err := profiler.ProfileApp(context.Background(), app)
	if err != nil {
		panic(err)
	}
	a := res.Aggregate
	// maxflops is a pure FMA chain: nearly all of IPC_MAX retires.
	fmt.Println("tool:", a.Tool)
	fmt.Println("passes:", res.Passes)
	fmt.Println("retire dominates:", a.Retire > a.Divergence+a.Stall)
	// Output:
	// tool: ncu
	// passes: 1
	// retire dominates: true
}

// ExampleProfiler_ProfileApp_pascal shows the compute-capability dispatch:
// the same call on a CC 6.1 device consumes nvprof metrics.
func ExampleProfiler_ProfileApp_pascal() {
	spec := gputopdown.GTX1070().WithSMs(2)
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(3))

	app, _ := gputopdown.LookupApp("shoc", "triad")
	res, err := profiler.ProfileApp(context.Background(), app)
	if err != nil {
		panic(err)
	}
	// Level 3 is capped to 2 below CC 7.2 (paper Fig. 3).
	fmt.Println("tool:", res.Aggregate.Tool)
	fmt.Println("level:", res.Aggregate.Level)
	// Output:
	// tool: nvprof
	// level: 2
}

// ExampleWithObserver is the README's observability snippet: one run's
// Chrome trace and Prometheus self-metrics, written to files. It is compiled,
// not run.
func ExampleWithObserver() {
	tracer := gputopdown.NewTracer()
	registry := gputopdown.NewMetricsRegistry()
	p := gputopdown.NewProfiler(gputopdown.QuadroRTX4000(),
		gputopdown.WithLevel(3),
		gputopdown.WithObserver(tracer, registry))
	app, _ := gputopdown.LookupApp("rodinia", "srad_v1")
	res, _ := p.ProfileApp(context.Background(), app)
	tracer.WriteFile("trace.json")     // open at https://ui.perfetto.dev
	registry.WriteFile("metrics.prom") // Prometheus text exposition 0.0.4
	_ = res
}

// ExampleAppResult_Series retrieves the per-invocation dynamic analysis of
// one kernel (the paper's Figs. 11-12 workflow).
func ExampleAppResult_Series() {
	spec := gputopdown.QuadroRTX4000().WithSMs(2)
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(1))

	app, _ := gputopdown.LookupApp("rodinia", "srad_v1")
	res, err := profiler.ProfileApp(context.Background(), app)
	if err != nil {
		panic(err)
	}
	series := res.Series("srad_cuda_1")
	fmt.Println("invocations:", len(series))
	fmt.Println("kernels:", res.KernelNames())
	// Output:
	// invocations: 24
	// kernels: [srad_cuda_1 srad_cuda_2]
}
