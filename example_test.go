package gputopdown_test

import (
	"context"
	"fmt"
	"strings"

	"gputopdown"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/workloads"
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

// twoPhaseKernel streams strided loads in its first half and grinds a
// register-resident FMA chain in its second.
func twoPhaseKernel() *kernel.Program {
	b := kernel.NewBuilder("stream_then_compute")
	in, out, n := b.Param(0), b.Param(1), b.Param(2)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)

	// Phase A: strided streaming — memory-bound.
	acc := b.FConst(0)
	i := b.ForImm(0, 8, 1)
	addr := b.IMad(b.AndImm(b.IMad(i, n, gid), (1<<15)-1), b.MovImm(32), in)
	b.MovTo(acc, b.FAdd(acc, b.Ldg(addr, 0, 4)))
	b.EndFor()

	// Phase B: a long FMA chain — compute-bound.
	x := b.FConst(1.0001)
	b.ForImm(0, 16, 1)
	for u := 0; u < 8; u++ {
		b.MovTo(acc, b.FFma(acc, x, x))
	}
	b.EndFor()

	b.Stg(b.IMad(gid, b.MovImm(4), out), acc, 0, 4)
	b.Exit()
	return b.MustBuild()
}

// ExampleProfiler_Timeline samples Top-Down counters every 1000 cycles inside
// one launch (the paper's §V.D dynamic analysis below kernel granularity),
// exposing the two phases of a single kernel.
func ExampleProfiler_Timeline() {
	prog := twoPhaseKernel()
	app := &gputopdown.App{
		Name:  "twophase",
		Suite: "custom",
		Run: func(ctx *workloads.RunCtx) error {
			const n = 2048
			in := ctx.Dev.Alloc(32 << 15)
			out := ctx.Dev.Alloc(n * 4)
			vals := make([]float32, 8192)
			for i := range vals {
				vals[i] = ctx.Rng.Float32()
			}
			ctx.Dev.Storage.WriteF32Slice(in, vals)
			return ctx.Exec(&kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: n / 256},
				Block:   kernel.Dim3{X: 256},
				Params:  []uint64{in, out, n},
			})
		},
	}

	spec := gputopdown.QuadroRTX4000().WithSMs(2)
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(2))
	points, err := profiler.Timeline(context.Background(), app, "stream_then_compute", 0, 1000)
	if err != nil {
		panic(err)
	}
	// The bar is the memory share of the issue slots lost to stalls.
	for _, pt := range points {
		a := pt.Analysis
		bar := ""
		if deg := a.Degradation(); deg > 0 {
			bar = strings.Repeat("#", int(20*a.Memory/deg))
		}
		fmt.Printf("cycle %4d |%-20s| retire %2.0f%%  memory %2.0f%%  core %2.0f%%\n", pt.StartCycle,
			bar, 100*a.Fraction(a.Retire), 100*a.Fraction(a.Memory), 100*a.Fraction(a.Core))
	}
	// Output:
	// cycle    0 |########            | retire 43%  memory 25%  core  1%
	// cycle 1000 |##########          | retire 34%  memory 36%  core  1%
	// cycle 2000 |##########          | retire 34%  memory 36%  core  1%
	// cycle 3000 |###########         | retire 37%  memory 35%  core  1%
	// cycle 4000 |                    | retire 95%  memory  0%  core  0%
	// cycle 5000 |                    | retire 95%  memory  0%  core  0%
	// cycle 6000 |                    | retire 95%  memory  0%  core  0%
	// cycle 7000 |                    | retire 95%  memory  0%  core  0%
	// cycle 8000 |                    | retire 85%  memory  0%  core  6%
}

// Example_customKernel authors a kernel with the mini-ISA builder, wraps it
// as an application and profiles it: the workflow for code outside the
// bundled suites. The kernel is an unbalanced SAXPY: every fourth element
// takes a transcendental path, so the profile shows both divergence and
// math-pipe (core) pressure.
func Example_customKernel() {
	b := kernel.NewBuilder("saxpy_unbalanced")
	xs, ys, n := b.Param(0), b.Param(1), b.Param(2)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)
	off := b.Shl(gid, 2)
	r := b.FFma(b.FConst(2.5), b.Ldg(b.IAdd(xs, off), 0, 4), b.Ldg(b.IAdd(ys, off), 0, 4))
	b.If(b.ISetpImm(isa.CmpEQ, b.AndImm(gid, 3), 0))
	for i := 0; i < 6; i++ {
		b.MovTo(r, b.Mufu(isa.MufuSIN, r))
	}
	b.EndIf()
	b.Stg(b.IAdd(ys, off), r, 0, 4)
	b.Exit()
	prog := b.MustBuild()

	app := &gputopdown.App{
		Name:  "saxpy_unbalanced",
		Suite: "custom",
		Run: func(ctx *workloads.RunCtx) error {
			const n = 8 * 1024
			xs, ys := ctx.Dev.Alloc(n*4), ctx.Dev.Alloc(n*4)
			host := make([]float32, n)
			for i := range host {
				host[i] = ctx.Rng.Float32()
			}
			ctx.Dev.Storage.WriteF32Slice(xs, host)
			ctx.Dev.Storage.WriteF32Slice(ys, host)
			return ctx.Exec(&kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: n / 256},
				Block:   kernel.Dim3{X: 256},
				Params:  []uint64{xs, ys, n},
			})
		},
	}

	spec := gputopdown.QuadroRTX4000().WithSMs(2)
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(3))
	res, err := profiler.ProfileApp(context.Background(), app)
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Aggregate.String())
	// Output:
	// Top-Down saxpy_unbalanced on NVIDIA Quadro RTX 4000/2sm (CC 7.5, ncu), IPC_MAX=2
	//   Retire       38.6%
	//   Divergence   11.2%
	//     Branch     11.2%
	//     Replay      0.0%
	//   Frontend      3.1%
	//     Fetch       1.7%
	//       barrier              0.0%
	//       branch_resolving     0.4%
	//       membar               0.0%
	//       no_instruction       1.3%
	//       sleeping             0.0%
	//     Decode      1.4%
	//       dispatch_stall       1.2%
	//       misc                 0.2%
	//   Backend      47.1%
	//     Core        9.9%
	//       math_pipe_throttle   3.8%
	//       tex_throttle         0.0%
	//       wait                 6.1%
	//     Memory     37.2%
	//       drain                1.8%
	//       imc_miss             0.0%
	//       lg_throttle          9.7%
	//       long_scoreboard     25.6%
	//       mio_throttle         0.0%
	//       short_scoreboard     0.0%
}
