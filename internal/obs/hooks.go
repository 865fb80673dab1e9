package obs

// Component is the scope a subsystem of a profiler's runs logs under.
type Component uint8

// The components, in componentNames order.
const (
	Sim      Component = iota // kernel launches and fast-forward accounting
	Cupti                     // session configuration, pass start and stop
	Cache                     // replay-cache hits and misses
	Core                      // Top-Down analyses
	Profiler                  // one summary per app, isolated kernels
)

var componentNames = [...]string{"sim", "cupti", "cache", "core", "profiler"}

// The one family with two kinds of series: the registry-wide ratio,
// unlabelled, and one per profiled app.
const (
	overheadRatio     = "profiler_replay_overhead_ratio"
	overheadRatioHelp = "Live profiled/native simulated-cycle ratio (the paper's Fig. 13)."
)

// Hooks is everything that observes a profiler's runs, as one value: the
// tracer, a logger per Component and the handles of every profiler
// self-metric family, each family named once, in NewHooks. A device, a
// profiling session and an analyzer report to the same *Hooks, nil when
// nothing observes: Trace, Log and AppOverhead are safe on nil, and the
// layers read the handles, each nil-safe itself, behind one nil check.
type Hooks struct {
	tracer *Tracer
	reg    *Registry
	logs   [len(componentNames)]*Logger

	Launches, Blocks, SimCycles, SimWall                       *Counter // internal/sim
	Passes, Flushes, FlushCycles, NativeCycles, ProfiledCycles *Counter // internal/cupti
	Profiled, Skipped, CacheHits, CacheMisses, PassWall        *Counter
	Analyses                                                   *Counter // internal/core
	Throughput, Overhead, PassesPerKernel, CacheEntries        *Gauge
	PassWallHist, AnalysisWall                                 *Histogram
}

// NewHooks builds the hooks that observe through tr, reg and log, any of
// which may be nil, or returns nil when all three are.
func NewHooks(tr *Tracer, reg *Registry, log *Logger) *Hooks {
	if tr == nil && reg == nil && log == nil {
		return nil
	}
	h := &Hooks{tracer: tr, reg: reg}
	for c, name := range componentNames {
		h.logs[c] = log.Component(name)
	}
	if reg == nil {
		return h
	}
	c := func(name, help string) *Counter { return reg.Counter(name, help, nil) }
	g := func(name, help string) *Gauge { return reg.Gauge(name, help, nil) }
	h.Launches = c("sim_launches_total", "Kernel launches executed on the simulated device.")
	h.Blocks = c("sim_blocks_dispatched_total", "Thread blocks dispatched to SMs by the GigaThread engine model.")
	h.SimCycles = c("sim_cycles_total", "Simulated device cycles executed across all launches.")
	h.SimWall = c("sim_wall_seconds_total", "Host wall-clock seconds spent simulating kernel launches.")
	h.Throughput = g("sim_throughput_cycles_per_second", "Simulation speed: simulated cycles per wall-clock second.")
	h.Passes = c("profiler_passes_total", "Replay passes accounted across all profiled kernel invocations.")
	h.Flushes = c("profiler_cache_flushes_total", "Device cache flushes performed before simulated launches.")
	h.FlushCycles = c("profiler_flush_cycles_total", "Simulated cycles charged to inter-pass cache/memory flushes.")
	h.NativeCycles = c("profiler_native_cycles_total", "Simulated cycles the application would take without profiling.")
	h.ProfiledCycles = c("profiler_profiled_cycles_total", "Simulated cycles including every replay pass and flush.")
	h.Profiled = c("profiler_kernels_profiled_total", "Kernel invocations fully profiled via multi-pass replay.")
	h.Skipped = c("profiler_kernels_skipped_total", "Kernel invocations run natively under sampling (values inherited).")
	h.CacheHits = c("profiler_replay_cache_hits_total", "Kernel invocations served from the replay result cache.")
	h.CacheMisses = c("profiler_replay_cache_misses_total", "Kernel invocations that missed the replay result cache.")
	h.PassWall = c("profiler_pass_wall_seconds_total", "Host wall-clock seconds spent simulating profiled launches.")
	h.PassWallHist = reg.Histogram("profiler_pass_wall_seconds",
		"Wall-clock duration of each profiled launch's one simulated pass.", nil, nil)
	h.Overhead = g(overheadRatio, overheadRatioHelp)
	h.PassesPerKernel = g("profiler_passes_per_kernel", "Replay passes the scheduled counter set requires per kernel.")
	h.CacheEntries = g("profiler_replay_cache_entries", "Invocations currently memoized in the replay result cache.")
	h.Analyses = c("analysis_total", "Top-Down analyses computed (kernels plus timeline intervals).")
	h.AnalysisWall = reg.Histogram("analysis_wall_seconds",
		"Wall-clock duration of individual Top-Down analyses.", nil, nil)
	return h
}

// Trace returns the tracer (nil when there is none).
func (h *Hooks) Trace() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

// Log returns c's logger (nil when logging is off).
func (h *Hooks) Log(c Component) *Logger {
	if h == nil {
		return nil
	}
	return h.logs[c]
}

// AppOverhead records the overhead ratio of one profiled app on one GPU.
func (h *Hooks) AppOverhead(app, gpu string, ratio float64) {
	if h != nil && h.reg != nil {
		h.reg.Gauge(overheadRatio, overheadRatioHelp, Labels{"app": app, "gpu": gpu}).Set(ratio)
	}
}
