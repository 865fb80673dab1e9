// Command topdown is the paper's profiling tool: it runs a benchmark
// application on a simulated NVIDIA GPU under the Top-Down methodology and
// prints the hierarchical IPC breakdown (Retire / Divergence / Frontend /
// Backend, with level 2-3 detail on CC >= 7.2 devices).
//
// Examples:
//
//	topdown -gpu rtx4000 -suite rodinia -app srad_v2 -level 3
//	topdown -gpu gtx1070 -suite altis -app gemm -level 2 -per-kernel
//	topdown -gpu rtx4000 -dynamic              # per-invocation srad series
//	topdown -gpu rtx4000 -autotune -replay-cache  # memoized autotune harness
//	topdown -gpu rtx4000 -suite rodinia -all -serve :8080   # live-observable sweep
//	topdown -gpu rtx4000 -suite altis -app gemm -flame-out gemm.folded
//	topdown -list                              # available apps
//	topdown -remote http://127.0.0.1:8791 -suite altis -app gups  # job flags only
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"gputopdown"
	"gputopdown/internal/cliflags"
	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
)

func main() {
	f := cliflags.New("topdown")
	f.Register(flag.CommandLine, cliflags.Device, cliflags.Workload, cliflags.Collection, cliflags.Observability)
	perKernel := flag.Bool("per-kernel", false, "also print each kernel invocation")
	format := flag.String("format", "text", "aggregate output format: text, csv or json")
	dynamic := flag.Bool("dynamic", false, "run the 100-invocation srad dynamic analysis")
	autotune := flag.Bool("autotune", false, "run the autotuning-harness workload (20 byte-identical GEMM launches; pairs with -replay-cache)")
	compare := flag.Bool("compare", false, "run the app on both GPUs and print a side-by-side comparison")
	list := flag.Bool("list", false, "list available devices and applications")
	all := flag.Bool("all", false, "profile every app of -suite (a sweep; pairs with -serve and -log-level)")
	remote := flag.String("remote", "", "submit the profile as a job to a gpuprofd daemon at this base URL (e.g. http://127.0.0.1:8791) and print its JSON report")
	remoteTimeout := flag.Duration("remote-timeout", 0, "per-job deadline sent with -remote (0 = daemon default)")
	flag.Parse()

	if *list {
		listAll()
		return
	}

	// Context-first API: ^C / SIGTERM cancel the run mid-pass instead of
	// killing the process between flushes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *remote != "" {
		// A daemon job carries the job settings only; fail rather than
		// drop the rest.
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name != "remote" && fl.Name != "remote-timeout" && !cliflags.JobFlag(fl.Name) {
				fatalf("-%s is not sent with -remote", fl.Name)
			}
		})
		remoteProfile(ctx, *remote, f, *remoteTimeout)
		return
	}

	p, opts, err := f.Open()
	if err != nil {
		fatalf("%v (try -list)", err)
	}
	defer func() {
		if err := f.Finish(p); err != nil {
			fatalf("%v", err)
		}
	}()

	if *all {
		results, err := p.ProfileSuite(ctx, f.Job.Suite)
		if err != nil {
			fatalf("%v", err)
		}
		printSweep(results, f.Overhead)
		for _, res := range results {
			gputopdown.AddFlame(f.Flame, res)
		}
		return
	}

	if *dynamic {
		f.Job.Suite, f.Job.App = "altis", "srad_dynamic"
	} else if *autotune {
		f.Job.Suite, f.Job.App = "altis", "gemm_autotune"
	}
	app, err := f.SelectedApp()
	if err != nil {
		fatalf("%v (try -list)", err)
	}

	if *compare {
		compareGPUs(ctx, app, f, opts)
		return
	}

	res, err := p.ProfileApp(ctx, app)
	if err != nil {
		fatalf("%v", err)
	}
	gputopdown.AddFlame(f.Flame, res)

	if f.Overhead {
		printOverhead(res)
	}

	if *dynamic {
		printDynamic(res)
		return
	}

	switch *format {
	case "csv":
		fmt.Print(res.Aggregate.CSV())
	case "json":
		data, err := res.Aggregate.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(data))
	default:
		fmt.Print(res.Aggregate.String())
	}
	fmt.Printf("kernel invocations: %d, passes per kernel: %d, overhead: %.1fx\n",
		len(res.Kernels), res.Passes, res.Overhead())
	if *perKernel {
		fmt.Println()
		for _, k := range res.Kernels {
			a := k.Analysis
			fmt.Printf("%-24s inv %-3d %8d cyc  retire %s  div %s  fe %s  be %s\n",
				k.Kernel, k.Invocation, k.Cycles, core.Pct(a, "retire", 6), core.Pct(a, "divergence", 6),
				core.Pct(a, "frontend", 6), core.Pct(a, "backend", 6))
		}
	}
}

// remoteProfile submits the job the flags describe, with the timeout set, to
// a gpuprofd daemon, waits for the terminal state, and prints the report.
func remoteProfile(ctx context.Context, base string, f *cliflags.Flags, timeout time.Duration) {
	if f.Job.App == "" {
		fatalf("missing -app (remote mode profiles one app; try -list)")
	}
	f.Job.TimeoutMS = timeout.Milliseconds()
	rep, err := gputopdown.SubmitAndWait(ctx, base, &f.Job, 200*time.Millisecond)
	if err != nil {
		fatalf("remote profile: %v", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
}

// printSweep prints one aggregate line per app of a -all suite sweep.
func printSweep(results []*gputopdown.AppResult, overhead bool) {
	fmt.Printf("%-28s %10s %7s %7s %7s %7s %9s\n",
		"app", "cycles", "retire", "diverg", "front", "back", "overhead")
	for _, res := range results {
		a := res.Aggregate
		fmt.Printf("%-28s %10d %s %s %s %s %8.1fx\n",
			res.Suite+"/"+res.App, res.NativeCycles, core.Pct(a, "retire", 7), core.Pct(a, "divergence", 7),
			core.Pct(a, "frontend", 7), core.Pct(a, "backend", 7), res.Overhead())
	}
	if overhead {
		for _, res := range results {
			printOverhead(res)
		}
	}
}

// printOverhead prints the measured replay-overhead summary: the paper's
// Fig. 13 accounting from live instrumentation, plus wall time and sim
// throughput for the run.
func printOverhead(res *gputopdown.AppResult) {
	throughput := 0.0
	if res.WallSeconds > 0 {
		throughput = float64(res.ProfiledCycles) / res.WallSeconds
	}
	fmt.Printf("overhead: app=%s/%s gpu=%q passes=%d native=%d profiled=%d ratio=%.1fx wall=%.3fs throughput=%.3g cyc/s\n",
		res.Suite, res.App, res.GPU, res.Passes, res.NativeCycles,
		res.ProfiledCycles, res.Overhead(), res.WallSeconds, throughput)
}

// compareGPUs reproduces the paper's architecture-vs-architecture reading of
// the hierarchy (§V.B): the same application on Pascal and Turing, the
// level-1 stack and the stall categories under it. Both profilers are built
// from opts, so every collection and observability flag applies to both
// devices.
func compareGPUs(ctx context.Context, app *gputopdown.App, f *cliflags.Flags, opts []gputopdown.Option) {
	var results []*gputopdown.AppResult
	var names []string
	for _, id := range gpu.IDs() {
		spec, _ := f.Spec(id)
		p := gputopdown.NewProfiler(spec, opts...)
		res, err := p.ProfileApp(ctx, app)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if err := p.CheckErr(); err != nil {
			fatalf("%s: invariant checks failed:\n%v", id, err)
		}
		gputopdown.AddFlame(f.Flame, res)
		results = append(results, res)
		names = append(names, spec.Name)
	}
	fmt.Printf("Top-Down comparison of %s/%s (shares of each device's IPC_MAX)\n", app.Suite, app.Name)
	fmt.Printf("%-12s %24s %24s\n", "component", names[0], names[1])
	a0, a1 := results[0].Aggregate, results[1].Aggregate
	for _, n := range core.Nodes {
		if (n.Depth > 1 && n.NCU == nil) || !(n.In(a0) || n.In(a1)) {
			continue
		}
		fmt.Printf("%-12s %s %s\n", strings.Repeat("  ", n.Depth-1)+n.Name,
			core.Pct(a0, n.Path, 24), core.Pct(a1, n.Path, 24))
	}
	fmt.Printf("%-12s %24d %24d\n", "cycles", results[0].NativeCycles, results[1].NativeCycles)
	fmt.Printf("%-12s %23.1fx %23.1fx\n", "overhead", results[0].Overhead(), results[1].Overhead())
}

func printDynamic(res *gputopdown.AppResult) {
	for _, name := range res.KernelNames() {
		fmt.Printf("== %s (level-1 evolution) ==\n", name)
		fmt.Printf("%4s %8s %7s %7s %7s %7s\n", "inv", "cycles", "retire", "diverg", "front", "back")
		series := res.Series(name)
		for i, a := range series {
			fmt.Printf("%4d %8.0f %s %s %s %s\n", i, a.Weight, core.Pct(a, "retire", 7),
				core.Pct(a, "divergence", 7), core.Pct(a, "frontend", 7), core.Pct(a, "backend", 7))
		}
	}
}

func listAll() {
	fmt.Println("devices:")
	for _, id := range gpu.IDs() {
		spec, _ := gputopdown.LookupGPU(id)
		fmt.Printf("  %-10s %s (CC %s, %d SMs, IPC_MAX %.0f)\n",
			id, spec.Name, spec.Compute, spec.SMs, spec.IPCMax())
	}
	for _, s := range gputopdown.Suites() {
		fmt.Printf("suite %s:\n", s)
		apps := gputopdown.SuiteApps(s)
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Name
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "topdown: "+format+"\n", args...)
	os.Exit(1)
}
