// Package gputopdown is a Top-Down performance-profiling toolkit for NVIDIA
// GPUs, reproducing "Top-Down Performance Profiling on NVIDIA's GPUs"
// (Saiz et al., IPDPS Workshops 2022) on a built-in cycle-level GPU
// simulator.
//
// The package glues the full stack together the way the paper's tool does:
//
//	PMU counters -> multi-pass replay (CUPTI) -> nvprof/ncu metrics ->
//	Top-Down hierarchy (Retire / Divergence / Frontend / Backend)
//
// Typical use:
//
//	p := gputopdown.NewProfiler(gputopdown.QuadroRTX4000(),
//	        gputopdown.WithLevel(3))
//	app, _ := gputopdown.LookupApp("rodinia", "srad_v2")
//	res, _ := p.ProfileApp(context.Background(), app)
//	fmt.Print(res.Aggregate)
//
// The API is context-first: every Profile* method takes a context.Context as
// its first argument, honouring cancellation and deadlines mid-run.
//
// Devices are simulated (see DESIGN.md for the substitution argument), so
// results are bit-reproducible and need no GPU hardware.
package gputopdown

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"gputopdown/internal/check"
	"gputopdown/internal/core"
	"gputopdown/internal/cupti"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// Re-exported device models (paper Table IX).
var (
	// GTX1070 returns the Pascal (CC 6.1) evaluation GPU.
	GTX1070 = gpu.GTX1070
	// QuadroRTX4000 returns the Turing (CC 7.5) evaluation GPU.
	QuadroRTX4000 = gpu.QuadroRTX4000
)

// GPUSpec is a device model.
type GPUSpec = gpu.Spec

// Analysis is a Top-Down result (IPC components; see internal/core).
type Analysis = core.Analysis

// App is a benchmark application.
type App = workloads.App

// LookupGPU resolves a short device id ("gtx1070", "rtx4000").
func LookupGPU(id string) (*GPUSpec, bool) { return gpu.Lookup(id) }

// LookupApp resolves an app by suite and name ("rodinia", "bfs").
func LookupApp(suite, name string) (*App, bool) { return workloads.Lookup(suite, name) }

// Suites lists the available benchmark suites.
func Suites() []string { return workloads.Suites() }

// SuiteApps lists a suite's applications.
func SuiteApps(suite string) []*App { return workloads.BySuite(suite) }

// SradDynamic returns the 100-invocation SRAD application used for the
// paper's per-invocation dynamic analysis (Figs. 11 and 12).
func SradDynamic() *App { return workloads.SradDynamic() }

// GemmAutotune returns an autotuning-harness workload: the same GEMM
// configuration launched repeatedly with identical inputs, so from the
// second repetition on every invocation is byte-identical. It is the
// reference workload for the replay result cache (see WithReplayCache; the
// repository benchmark's `replay` workload times it).
func GemmAutotune() *App { return workloads.GemmAutotune() }

// Option configures a Profiler.
type Option func(*Profiler)

// WithLevel sets the Top-Down analysis depth (1..3; level 3 requires a
// CC >= 7.2 device and is capped otherwise).
func WithLevel(level int) Option { return func(p *Profiler) { p.level = level } }

// WithRawEquations disables the figure-style normalisation and follows the
// paper's equations (8)-(14) literally, leaving a residual in unlisted
// warp states.
func WithRawEquations() Option { return func(p *Profiler) { p.normalize = false } }

// WithHWPM switches counter collection to the HWPM mechanism (single-SM
// sampling) instead of SMPC (paper §II.A).
func WithHWPM() Option { return func(p *Profiler) { p.mode = cupti.ModeHWPM } }

// WithSampling profiles only every n-th invocation of each kernel, running
// the rest natively with the most recent sampled values — the paper's §VII
// mitigation for applications whose kernel counts make full replay
// impractical.
func WithSampling(n int) Option { return func(p *Profiler) { p.sampleEvery = n } }

// WithReplayCache enables deterministic memoization of byte-identical kernel
// invocations: when the same (program, launch configuration, device memory,
// constant bank) recurs under the same pass schedule, the recorded counter
// values and memory effects are replayed instead of re-simulating, while the
// full replay cost is still charged to the Fig. 13 overhead accounting. The
// cache is shared across every session the profiler creates (ProfileApps runs
// apps concurrently; the cache is safe for that).
func WithReplayCache(on bool) Option { return func(p *Profiler) { p.cacheOn = on } }

// WithChecks attaches the in-loop invariant checker (internal/check): every
// checkpointed simulation epoch, kernel launch, PMU pass merge, and Top-Down
// analysis is asserted against the conservation laws the design guarantees
// (warp-state histogram sums, cache/DRAM accounting, Top-Down closure).
// Violations accumulate on the profiler and are reported by CheckErr; they do
// not interrupt the run. Off (the default) the hook sites are nil checks —
// zero allocations, no measurable cost (BenchmarkChecksDisabled).
func WithChecks(on bool) Option { return func(p *Profiler) { p.checksOn = on } }

// CheckErr reports the invariant violations recorded so far when the profiler
// was built WithChecks(true): nil when none (or when checks are off), else an
// error listing the first violations and the total count. The checker
// accumulates across runs; it is not reset between apps.
func (p *Profiler) CheckErr() error { return p.checks.Err() }

// Tracer is the execution tracer (Chrome trace-event JSON export); see
// internal/obs. Create one with NewTracer.
type Tracer = obs.Tracer

// MetricsRegistry is the profiler self-metrics registry (Prometheus text
// exposition); see internal/obs. Create one with NewMetricsRegistry.
type MetricsRegistry = obs.Registry

// NewTracer builds an execution tracer whose wall clock starts now.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithObserver attaches an execution tracer and/or a metrics registry to the
// profiler: every profiling session, simulated pass, cache flush, kernel
// launch and Top-Down analysis becomes a span, and the profiler self-metrics
// (passes, flush cycles, simulated cycles, wall time, replay overhead ratio,
// sim throughput) are maintained live. Either argument may be nil. The cost
// when no observer is attached is near zero.
func WithObserver(tr *Tracer, reg *MetricsRegistry) Option {
	return func(p *Profiler) {
		p.tracer = tr
		p.metrics = reg
	}
}

// Logger is the structured, component-scoped leveled logger (log/slog based);
// see internal/obs. Create one with NewLogger, attach it with WithLogger.
type Logger = obs.Logger

// NewLogger builds a structured logger writing to w. level is "debug",
// "info", "warn" or "error" (the -log-level flag values); format is "text"
// for logfmt-style lines or "json" for one JSON object per line.
func NewLogger(w io.Writer, level, format string) (*Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, lv, format), nil
}

// WithLogger attaches a structured logger to the profiler. Every subsystem
// logs under its own component scope: "cupti" (pass start/stop, session
// configuration), "cache" (replay-cache hits and misses), "sim" (kernel
// launches and fast-forward accounting), "core" (analyses) and "profiler"
// (one "app profiled" summary per app). A nil logger — or no WithLogger at
// all — keeps the allocation-free disabled path.
func WithLogger(l *Logger) Option { return func(p *Profiler) { p.logger = l } }

// Profiler runs applications under Top-Down profiling on one GPU model.
// Building one opens no socket and starts no goroutine, so the same []Option
// can build any number of profilers.
//
// A Profiler keeps the simulated devices its runs used: each run takes an
// idle device and resets it (sim.Device.Reset), building one only when none
// is idle, and a device goes back to the idle list only from a run that
// completed cleanly. It therefore holds at most as many devices as it ever
// ran applications concurrently.
type Profiler struct {
	spec        *gpu.Spec
	level       int
	normalize   bool
	mode        cupti.Mode
	sampleEvery int
	cacheOn     bool
	checksOn    bool
	checks      *check.Invariants
	cache       *cupti.ReplayCache
	tracer      *obs.Tracer
	metrics     *obs.Registry
	logger      *obs.Logger

	devMu sync.Mutex
	idle  []*sim.Device
}

// takeDevice returns an idle device, reset, or a new one when none is idle.
// The reset happens here rather than on release, so a profiler that runs one
// application pays for exactly one new device.
func (p *Profiler) takeDevice() *sim.Device {
	p.devMu.Lock()
	n := len(p.idle)
	if n == 0 {
		p.devMu.Unlock()
		return sim.NewDevice(p.spec)
	}
	dev := p.idle[n-1]
	p.idle = p.idle[:n-1]
	p.devMu.Unlock()
	dev.Reset()
	return dev
}

// releaseDevice makes dev idle again once its run completed cleanly. A device
// whose run failed, isolated a panicked kernel or panicked through the
// profiler is never released, so no later run inherits its state.
func (p *Profiler) releaseDevice(dev *sim.Device) {
	p.devMu.Lock()
	p.idle = append(p.idle, dev)
	p.devMu.Unlock()
}

// NewProfiler builds a profiler for a device model. The default is a
// normalised level-3 analysis with SMPC collection.
//
// Out-of-range options are clamped rather than rejected: a level outside
// 1..3 is capped by the analyzer and sampleEvery < 1 disables sampling. Use
// NewProfilerE to have invalid options reported as errors instead.
func NewProfiler(spec *gpu.Spec, opts ...Option) *Profiler {
	p := build(spec, opts)
	if p.sampleEvery < 0 {
		p.sampleEvery = 0
	}
	return p
}

// NewProfilerE is the validating variant of NewProfiler: instead of clamping
// out-of-range options it rejects them, so configuration mistakes fail fast
// at construction rather than silently changing behavior. It returns an
// error when spec is nil, the level is outside 1..3 or sampleEvery is
// negative.
func NewProfilerE(spec *gpu.Spec, opts ...Option) (*Profiler, error) {
	if spec == nil {
		return nil, fmt.Errorf("gputopdown: nil GPU spec")
	}
	p := build(spec, opts)
	if p.level < core.Level1 || p.level > core.Level3 {
		return nil, fmt.Errorf("gputopdown: analysis level %d outside 1..3", p.level)
	}
	if p.sampleEvery < 0 {
		return nil, fmt.Errorf("gputopdown: negative sampling interval %d", p.sampleEvery)
	}
	return p, nil
}

// build applies opts over the defaults and creates the replay cache and
// invariant checker they ask for; the constructors differ only in what they
// do with an out-of-range value afterwards.
func build(spec *gpu.Spec, opts []Option) *Profiler {
	p := &Profiler{spec: spec, level: core.Level3, normalize: true, mode: cupti.ModeSMPC}
	for _, o := range opts {
		o(p)
	}
	if p.cacheOn {
		p.cache = cupti.NewReplayCache(0)
	}
	if p.checksOn {
		p.checks = check.New()
	}
	return p
}

// Spec returns the profiler's device model.
func (p *Profiler) Spec() *gpu.Spec { return p.spec }

// Level returns the configured analysis level after device capping.
func (p *Profiler) Level() int {
	return core.NewAnalyzer(p.spec, p.level).Level
}

// KernelResult is the Top-Down analysis of one kernel invocation.
type KernelResult struct {
	Kernel     string
	Invocation int
	// Cycles is the kernel's native duration on the device.
	Cycles uint64
	// Analysis is the per-invocation Top-Down breakdown.
	Analysis *core.Analysis
}

// AppResult is the profile of one application.
type AppResult struct {
	App   string
	Suite string
	GPU   string
	// Kernels holds every kernel invocation in execution order.
	Kernels []KernelResult
	// Aggregate is the duration-weighted application-level analysis
	// (paper §V.D).
	Aggregate *core.Analysis
	// Passes is the replays per kernel the counter set required.
	Passes int
	// NativeCycles and ProfiledCycles are the totals behind the paper's
	// Fig. 13 overhead ratio.
	NativeCycles   uint64
	ProfiledCycles uint64
	// WallSeconds is the host wall-clock time the profiled run took.
	WallSeconds float64
	// Failed holds the kernels whose simulation panicked and was isolated
	// (each wraps ErrKernelPanic); the rest of the application completed
	// without them. Empty on a clean run.
	Failed []*KernelError
}

// Overhead returns ProfiledCycles/NativeCycles.
func (r *AppResult) Overhead() float64 { return overheadRatio(r.NativeCycles, r.ProfiledCycles) }

func overheadRatio(native, profiled uint64) float64 {
	if native == 0 {
		return 0
	}
	return float64(profiled) / float64(native)
}

// Series returns the per-invocation analyses of one kernel, in invocation
// order — the paper's dynamic analysis (Figs. 11 and 12).
func (r *AppResult) Series(kernelName string) []*core.Analysis {
	var out []*core.Analysis
	for _, k := range r.Kernels {
		if k.Kernel == kernelName {
			out = append(out, k.Analysis)
		}
	}
	return out
}

// KernelNames returns the distinct kernel names in first-seen order.
func (r *AppResult) KernelNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, k := range r.Kernels {
		if !seen[k.Kernel] {
			seen[k.Kernel] = true
			names = append(names, k.Kernel)
		}
	}
	return names
}

// ProfileApp runs one application on an idle simulated device, new or reset
// (see Profiler), and returns its Top-Down results. The context is
// first-class: cancellation and deadlines are checked between kernel launches
// and inside the simulation loop itself (every few hundred simulated-cycle
// steps, including fast-forward wakeup boundaries), so a profiled run stops
// well within one kernel simulation of ctx being cancelled, returning ctx.Err
// wrapped in a *KernelError. Pass context.Background()
// when no cancellation is wanted.
//
// A kernel whose simulation panics is isolated rather than fatal: it is
// recorded on AppResult.Failed as a *KernelError wrapping ErrKernelPanic,
// the device is reset, and the application's remaining kernels profile
// normally (graceful degradation). Only when every kernel fails — or the app
// launches none — does ProfileApp return an error.
func (p *Profiler) ProfileApp(ctx context.Context, app *workloads.App) (*AppResult, error) {
	dev := p.takeDevice()
	res, err := p.profileOn(ctx, dev, app)
	if err == nil && len(res.Failed) == 0 {
		p.releaseDevice(dev)
	}
	return res, err
}

// profileOn is the Top-Down analysis as a client of collect: it requests the
// analyzer's counters, analyses each visited invocation and aggregates.
func (p *Profiler) profileOn(ctx context.Context, dev *sim.Device, app *workloads.App) (*AppResult, error) {
	analyzer := core.NewAnalyzer(p.spec, p.level)
	analyzer.Normalize = p.normalize
	request, err := analyzer.CounterRequest()
	if err != nil {
		return nil, err
	}
	if p.tracer != nil || p.metrics != nil {
		analyzer.SetObserver(p.tracer, p.metrics)
	}
	if p.logger != nil {
		analyzer.SetLogger(p.logger)
	}
	res := &AppResult{App: app.Name, Suite: app.Suite, GPU: p.spec.Name}
	col, err := p.collect(ctx, dev, app, request, func(_ *kernel.Launch, rec *cupti.KernelRecord) error {
		a := analyzer.Analyze(rec.Kernel, rec.Values)
		a.Weight = float64(rec.Cycles)
		p.checks.CheckAnalysis(a)
		res.Kernels = append(res.Kernels, KernelResult{
			Kernel:     rec.Kernel,
			Invocation: rec.Invocation,
			Cycles:     rec.Cycles,
			Analysis:   a,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Passes, res.Failed = col.Passes, col.Failed
	res.NativeCycles, res.ProfiledCycles = col.NativeCycles, col.ProfiledCycles
	res.WallSeconds = col.WallSeconds
	analyses := make([]*core.Analysis, len(res.Kernels))
	for i := range res.Kernels {
		analyses[i] = res.Kernels[i].Analysis
	}
	res.Aggregate = core.Aggregate(app.Name, analyses)
	p.checks.CheckAnalysis(res.Aggregate)
	return res, nil
}

// Collection is the run-level outcome of profiling one application against
// a counter request: what the run cost, and which invocations were lost.
// The per-invocation counter values went to the Collect visitor.
type Collection struct {
	// Kernels is the number of invocations profiled and visited.
	Kernels int
	// Passes is the replays per kernel the counter request required.
	Passes int
	// NativeCycles and ProfiledCycles are the Fig. 13 overhead totals.
	NativeCycles   uint64
	ProfiledCycles uint64
	// WallSeconds is the host wall-clock time the profiled run took.
	WallSeconds float64
	// Failed holds the invocations whose simulation panicked and was
	// isolated, as on AppResult.Failed.
	Failed []*KernelError
	// CacheHits, CacheMisses and CacheEntries describe the profiler's replay
	// cache after the run (cumulative over the profiler's lifetime; all zero
	// without WithReplayCache).
	CacheHits, CacheMisses uint64
	CacheEntries           int
}

// Collect is the middleware below the Top-Down analysis (paper §II.B: the
// nvprof/ncu layer): it runs app on an idle simulated device, new or reset
// (see Profiler), collects the requested raw counters for every kernel
// invocation over as many replay passes as they need, and hands each launch
// with its merged record to visit, in execution order. Everything the
// profiler was configured with applies — collection mode, sampling, replay
// cache, invariant checks, observers, logger — and cancellation and panic
// isolation are ProfileApp's. An error from visit stops the run and is
// returned.
func (p *Profiler) Collect(ctx context.Context, app *workloads.App, request []pmu.CounterID,
	visit func(*kernel.Launch, *cupti.KernelRecord) error) (*Collection, error) {
	dev := p.takeDevice()
	col, err := p.collect(ctx, dev, app, request, visit)
	if err != nil {
		return nil, err
	}
	if len(col.Failed) == 0 {
		p.releaseDevice(dev)
	}
	return &col, nil
}

// collect is the one place a profiling session is assembled and driven:
// session over dev for request, the profiler's sampling, cache, checker,
// observers and logger attached, ctx honoured per launch, and a panicking
// kernel isolated onto Failed while the rest of the app runs.
func (p *Profiler) collect(ctx context.Context, dev *sim.Device, app *workloads.App, request []pmu.CounterID,
	visit func(*kernel.Launch, *cupti.KernelRecord) error) (Collection, error) {
	sess, err := cupti.NewSession(dev, request, p.mode)
	if err != nil {
		return Collection{}, err
	}
	if p.sampleEvery > 1 {
		sess.SetSampling(p.sampleEvery)
	}
	if p.cache != nil {
		sess.SetCache(p.cache)
	}
	if p.checks != nil {
		sess.SetChecker(p.checks)
	}
	obsOn := p.tracer != nil || p.metrics != nil
	if obsOn {
		sess.SetObserver(p.tracer, p.metrics)
	}
	if p.logger != nil {
		sess.SetLogger(p.logger)
	}
	sessStart := p.tracer.Now()
	wallStart := time.Now()
	col := Collection{Passes: sess.NumPasses()}
	err = app.Execute(dev, func(l *kernel.Launch) error {
		// ProfileCtx polls ctx before the launch and inside it.
		rec, err := sess.ProfileCtx(ctx, l)
		if err != nil {
			// Per-kernel panic isolation: a crashed kernel degrades the
			// profile instead of killing it. The device was already reset by
			// the middleware; record the loss and keep going.
			var ke *KernelError
			if errors.As(err, &ke) && errors.Is(err, ErrKernelPanic) {
				col.Failed = append(col.Failed, ke)
				if p.logger.On(obs.LevelWarn) {
					p.logger.Component("profiler").Warn("kernel isolated after panic",
						"app", app.ID(), "kernel", ke.Kernel, "err", ke.Err)
				}
				return nil
			}
			return err
		}
		col.Kernels++
		return visit(l, rec)
	})
	if err != nil {
		return Collection{}, err
	}
	if col.Kernels == 0 {
		if len(col.Failed) > 0 {
			// Every kernel panicked: nothing to analyse, so degradation
			// becomes failure — joined so errors.Is/As see each KernelError.
			failed := make([]error, len(col.Failed))
			for i, ke := range col.Failed {
				failed[i] = ke
			}
			return Collection{}, fmt.Errorf("gputopdown: %s: all %d kernels failed: %w",
				app.ID(), len(col.Failed), errors.Join(failed...))
		}
		return Collection{}, fmt.Errorf("gputopdown: %s: %w", app.ID(), ErrNoKernels)
	}
	col.NativeCycles, col.ProfiledCycles = sess.Overhead()
	col.WallSeconds = time.Since(wallStart).Seconds()
	if p.cache != nil {
		col.CacheHits, col.CacheMisses = p.cache.Stats()
		col.CacheEntries = p.cache.Len()
	}
	overhead := overheadRatio(col.NativeCycles, col.ProfiledCycles)
	if obsOn {
		if p.tracer != nil {
			p.tracer.Complete(obs.PIDProfiler, 1, "session", "profile "+app.ID(),
				sessStart, map[string]any{
					"gpu": p.spec.Name, "kernels": col.Kernels,
					"passes_per_kernel": col.Passes, "overhead": overhead,
				})
		}
		p.metrics.Gauge("profiler_replay_overhead_ratio",
			"Live profiled/native simulated-cycle ratio (the paper's Fig. 13).",
			obs.Labels{"app": app.ID(), "gpu": p.spec.Name}).Set(overhead)
	}
	if p.logger.On(obs.LevelInfo) {
		p.logger.Component("profiler").Info("app profiled",
			"app", app.ID(), "gpu", p.spec.Name,
			"kernels", col.Kernels, "passes_per_kernel", col.Passes,
			"overhead", overhead, "wall_seconds", col.WallSeconds)
	}
	return col, nil
}

// TimelinePoint is one interval of an intra-kernel timeline.
type TimelinePoint = core.TimelinePoint

// Timeline records an intra-kernel Top-Down timeline: the app runs natively
// with per-interval counter sampling enabled, and the invocation of
// kernelName selected by invocation (0-based) is analysed interval by
// interval. This extends the paper's §V.D dynamic analysis below kernel
// granularity (a simulator-side capability; see internal/core.AnalyzeTimeline).
// Cancellation is checked between kernel launches and inside each launch's
// simulation loop.
func (p *Profiler) Timeline(ctx context.Context, app *workloads.App, kernelName string, invocation int, interval uint64) ([]TimelinePoint, error) {
	if interval == 0 {
		return nil, fmt.Errorf("gputopdown: zero timeline interval")
	}
	dev := p.takeDevice()
	if p.checks != nil {
		dev.SetChecker(p.checks)
	}
	if p.logger != nil {
		dev.SetLogger(p.logger)
	}
	dev.EnableTrace(interval)
	analyzer := core.NewAnalyzer(p.spec, p.level)
	analyzer.Normalize = p.normalize
	if p.tracer != nil || p.metrics != nil {
		dev.SetObserver(p.tracer, p.metrics)
		analyzer.SetObserver(p.tracer, p.metrics)
	}
	if p.logger != nil {
		analyzer.SetLogger(p.logger)
	}
	var points []TimelinePoint
	seen := 0
	err := app.Execute(dev, func(l *kernel.Launch) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := dev.LaunchCtx(ctx, l)
		if err != nil {
			return err
		}
		if l.Program.Name == kernelName {
			if seen == invocation {
				points = analyzer.AnalyzeTimeline(kernelName, res.Trace, interval)
			}
			seen++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.releaseDevice(dev)
	if seen == 0 {
		return nil, fmt.Errorf("gputopdown: %s never launched kernel %q", app.ID(), kernelName)
	}
	if points == nil {
		return nil, fmt.Errorf("gputopdown: kernel %q has only %d invocations", kernelName, seen)
	}
	return points, nil
}

// ProfileSuite profiles every app of a suite, each on an idle device of its
// own, new or reset, fanning the independent apps across CPU cores. Results
// keep suite order. An unknown suite reports ErrUnknownSuite. Cancellation
// semantics are ProfileApps'.
func (p *Profiler) ProfileSuite(ctx context.Context, suite string) ([]*AppResult, error) {
	apps := workloads.BySuite(suite)
	if len(apps) == 0 {
		return nil, fmt.Errorf("gputopdown: suite %q: %w", suite, ErrUnknownSuite)
	}
	return p.ProfileApps(ctx, apps)
}

// ProfileApps profiles a list of apps concurrently, each on an idle device,
// new or reset, under a context. Every app is attempted and all failures are
// aggregated with errors.Join, each wrapped with its app id; the returned
// slice keeps input order and holds the results of the apps that succeeded
// (nil at failed indices), so partial progress is not discarded. Cancellation stops
// the remaining apps and surfaces ctx.Err among the joined errors.
func (p *Profiler) ProfileApps(ctx context.Context, apps []*workloads.App) ([]*AppResult, error) {
	results := make([]*AppResult, len(apps))
	errs := make([]error, len(apps))
	workers := runtime.NumCPU()
	if workers > len(apps) {
		workers = len(apps)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = p.ProfileApp(ctx, apps[i])
			}
		}()
	}
	fed := 0
feed:
	for i := range apps {
		select {
		case jobs <- i:
			fed++
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("gputopdown: %s: %w", apps[i].ID(), err)
		}
	}
	if fed < len(apps) {
		// Cancellation stopped the feed; the unfed apps never ran, so make
		// sure ctx.Err is visible even if every started app happened to
		// finish cleanly.
		errs = append(errs, fmt.Errorf("gputopdown: %d of %d apps not profiled: %w",
			len(apps)-fed, len(apps), ctx.Err()))
	}
	if err := errors.Join(errs...); err != nil {
		return results, err
	}
	return results, nil
}
