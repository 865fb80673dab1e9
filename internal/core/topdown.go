// Package core implements the paper's contribution: the Top-Down performance
// analysis methodology for NVIDIA GPUs (Fig. 3 and equations (1)–(14)).
//
// The hierarchy splits the theoretical peak IPC of an SM (IPC_MAX, the
// number of dispatch units per SM) into:
//
//	Retire                — useful work actually completed
//	Divergence            — Branch (warp underutilisation) + Replay
//	Stall · Frontend      — Fetch + Decode
//	Stall · Backend       — Core + Memory
//
// with level-3 detail under Fetch, Decode, Core and Memory on CC >= 7.2
// devices. The analyzer consumes profiler metrics by their tool names
// (nvprof for CC < 7.2, ncu for CC >= 7.2) exactly as the paper's tool does,
// so the full pipeline is: PMU counters -> passes -> metrics -> Top-Down.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"gputopdown/internal/gpu"
	"gputopdown/internal/metrics"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
)

// Level selects analysis depth.
const (
	Level1 = 1
	Level2 = 2
	Level3 = 3
)

// Analysis is the Top-Down result for one kernel (or a weighted aggregate of
// kernels). All component values are in IPC units; Fraction converts to a
// share of IPC_MAX.
type Analysis struct {
	Tool   string
	GPU    string
	CC     gpu.CC
	Kernel string
	Level  int
	// Normalized reports whether stall components were renormalised to fill
	// IPC_STALL exactly (the paper's "normalized to total IPC degradation").
	Normalized bool

	IPCMax float64

	// Level 1.
	Retire     float64
	Divergence float64
	Frontend   float64
	Backend    float64
	// Stall is the total stall IPC (eq. 7): Frontend+Backend when
	// normalised, possibly larger otherwise (residual in unlisted states).
	Stall float64

	// Level 2.
	Branch float64 // divergence: warp underutilisation (eq. 3)
	Replay float64 // divergence: instruction re-issue (eq. 4)
	Fetch  float64
	Decode float64
	Core   float64
	Memory float64

	// Level 3 (CC >= 7.2 only): component name -> IPC contribution.
	FetchDetail  map[string]float64
	DecodeDetail map[string]float64
	CoreDetail   map[string]float64
	MemoryDetail map[string]float64

	// Metrics holds the raw profiler metric values the analysis consumed.
	Metrics map[string]float64

	// Weight carries the aggregation weight (kernel duration in cycles) so
	// analyses can be combined per §V.D.
	Weight float64
}

// Fraction converts an IPC component to a share of IPC_MAX in [0,1].
func (a *Analysis) Fraction(v float64) float64 {
	if a.IPCMax == 0 {
		return 0
	}
	return v / a.IPCMax
}

// Degradation returns IPC_MAX - Retire: the total IPC lost.
func (a *Analysis) Degradation() float64 { return a.IPCMax - a.Retire }

// ncu level-3 component groupings (Tables VI and VIII).
var (
	ncuFetchSegs  = []string{"no_instruction", "barrier", "membar", "branch_resolving", "sleeping"}
	ncuDecodeSegs = []string{"misc", "dispatch_stall"}
	ncuCoreSegs   = []string{"math_pipe_throttle", "wait", "tex_throttle"}
	ncuMemorySegs = []string{"long_scoreboard", "imc_miss", "mio_throttle", "drain", "lg_throttle", "short_scoreboard"}
)

func ncuStallMetric(seg string) string {
	return "smsp__warp_issue_stalled_" + seg + "_per_warp_active.pct"
}

// Analyzer computes Top-Down analyses for one device.
type Analyzer struct {
	Spec     *gpu.Spec
	Registry *metrics.Registry
	// Level is the analysis depth (1..3). Level 3 requires CC >= 7.2.
	Level int
	// Normalize renormalises stall components over their sum so the level-1
	// stack adds up to IPC_MAX (default true, as in the paper's figures).
	Normalize bool

	// Observability (nil/disabled by default; see SetObserver/SetLogger).
	tracer    *obs.Tracer
	obsOn     bool
	mAnalyses *obs.Counter
	hAnalWall *obs.Histogram
	log       *obs.Logger // component "core"
}

// SetObserver attaches an execution tracer and metrics registry to the
// analyzer: every Analyze and AnalyzeTimeline call becomes a wall-clock span
// and feeds the analysis self-metrics. Either argument may be nil.
func (an *Analyzer) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	an.tracer = tr
	an.obsOn = tr != nil || reg != nil
	an.mAnalyses = reg.Counter("analysis_total",
		"Top-Down analyses computed (kernels plus timeline intervals).", nil)
	an.hAnalWall = reg.Histogram("analysis_wall_seconds",
		"Wall-clock duration of individual Top-Down analyses.", nil, nil)
}

// SetLogger attaches a structured logger; each computed analysis is logged at
// debug level under component "core". Nil detaches.
func (an *Analyzer) SetLogger(l *obs.Logger) { an.log = l.Component("core") }

// NewAnalyzer builds an analyzer for a device at the given level. It caps
// the level at 2 on pre-unified-metrics devices, where the PMU lacks the
// detailed breakdown (paper Fig. 3).
func NewAnalyzer(spec *gpu.Spec, level int) *Analyzer {
	if level < Level1 {
		level = Level1
	}
	if level > Level3 {
		level = Level3
	}
	if !spec.Compute.UsesUnifiedMetrics() && level > Level2 {
		level = Level2
	}
	return &Analyzer{
		Spec:      spec,
		Registry:  metrics.ForCC(spec.Compute),
		Level:     level,
		Normalize: true,
	}
}

// MetricNames returns the profiler metrics the analysis consumes at the
// configured level — what the paper's tool asks nvprof/ncu for.
func (an *Analyzer) MetricNames() []string {
	var names []string
	if an.Registry.Tool() == "ncu" {
		names = append(names,
			"smsp__inst_executed.avg.per_cycle_active",
			"smsp__thread_inst_executed_per_inst_executed.ratio",
			"smsp__inst_issued.avg.per_cycle_active",
		)
		if an.Level >= Level2 {
			for _, seg := range ncuFetchSegs {
				names = append(names, ncuStallMetric(seg))
			}
			for _, seg := range ncuDecodeSegs {
				names = append(names, ncuStallMetric(seg))
			}
			for _, seg := range ncuCoreSegs {
				names = append(names, ncuStallMetric(seg))
			}
			for _, seg := range ncuMemorySegs {
				names = append(names, ncuStallMetric(seg))
			}
		}
		return names
	}
	names = append(names, "ipc", "warp_execution_efficiency", "issued_ipc")
	if an.Level >= Level2 {
		names = append(names,
			"stall_inst_fetch", "stall_sync", "stall_other",
			"stall_exec_dependency", "stall_pipe_busy",
			"stall_memory_dependency", "stall_constant_memory_dependency",
			"stall_memory_throttle",
		)
	}
	return names
}

// CounterRequest returns the raw PMU counters behind MetricNames, ready for
// a cupti.Session.
func (an *Analyzer) CounterRequest() ([]pmu.CounterID, error) {
	return an.Registry.CountersFor(an.MetricNames())
}

// Analyze computes the Top-Down breakdown from collected counter values.
func (an *Analyzer) Analyze(kernelName string, values pmu.Values) *Analysis {
	if an.obsOn {
		spanStart := an.tracer.Now()
		wallStart := time.Now()
		defer func() {
			an.mAnalyses.Inc()
			an.hAnalWall.Observe(time.Since(wallStart).Seconds())
			if an.tracer != nil {
				an.tracer.Complete(obs.PIDProfiler, 2, "core",
					"analyze "+kernelName, spanStart,
					map[string]any{"level": an.Level, "tool": an.Registry.Tool()})
			}
		}()
	}
	ctx := &metrics.Context{Spec: an.Spec, Values: values}
	eval := func(name string) float64 {
		v, err := an.Registry.Eval(name, ctx)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		return v
	}

	a := &Analysis{
		Tool:       an.Registry.Tool(),
		GPU:        an.Spec.Name,
		CC:         an.Spec.Compute,
		Kernel:     kernelName,
		Level:      an.Level,
		Normalized: an.Normalize,
		IPCMax:     an.Spec.IPCMax(),
		Metrics:    map[string]float64{},
	}
	for _, n := range an.MetricNames() {
		a.Metrics[n] = eval(n)
	}

	var ipcRep, warpEff, ipcIss float64
	if a.Tool == "ncu" {
		ipcRep = a.Metrics["smsp__inst_executed.avg.per_cycle_active"]
		warpEff = a.Metrics["smsp__thread_inst_executed_per_inst_executed.ratio"] / 32
		ipcIss = a.Metrics["smsp__inst_issued.avg.per_cycle_active"]
	} else {
		ipcRep = a.Metrics["ipc"]
		warpEff = a.Metrics["warp_execution_efficiency"] / 100
		ipcIss = a.Metrics["issued_ipc"]
	}
	if warpEff > 1 {
		warpEff = 1
	}

	// Equations (2)–(5) and (7).
	a.Retire = ipcRep * warpEff
	a.Branch = ipcRep * (1 - warpEff)
	a.Replay = ipcIss - ipcRep
	if a.Replay < 0 {
		a.Replay = 0
	}
	a.Divergence = a.Branch + a.Replay
	a.Stall = a.IPCMax - a.Divergence - a.Retire
	if a.Stall < 0 {
		a.Stall = 0
	}

	if an.Level < Level2 {
		an.logAnalysis(a)
		return a
	}

	// Level 2: stall category percentages (eqs. 6, 8–14).
	var fetchPct, decodePct, corePct, memPct float64
	var fetchParts, decodeParts, coreParts, memParts map[string]float64
	if a.Tool == "ncu" {
		sum := func(segs []string) (float64, map[string]float64) {
			parts := map[string]float64{}
			var t float64
			for _, seg := range segs {
				v := a.Metrics[ncuStallMetric(seg)]
				parts[seg] = v
				t += v
			}
			return t, parts
		}
		fetchPct, fetchParts = sum(ncuFetchSegs)
		decodePct, decodeParts = sum(ncuDecodeSegs)
		corePct, coreParts = sum(ncuCoreSegs)
		memPct, memParts = sum(ncuMemorySegs)
	} else {
		fetchPct = a.Metrics["stall_inst_fetch"] + a.Metrics["stall_sync"]
		decodePct = a.Metrics["stall_other"]
		corePct = a.Metrics["stall_exec_dependency"] + a.Metrics["stall_pipe_busy"]
		memPct = a.Metrics["stall_memory_dependency"] +
			a.Metrics["stall_constant_memory_dependency"] +
			a.Metrics["stall_memory_throttle"]
	}

	// Scale percentages into IPC: eq. (8)-(14) use pct/100 x IPC_STALL; the
	// normalised mode instead distributes IPC_STALL across the listed
	// categories so the stack closes (the paper's figure normalisation).
	scale := a.Stall / 100
	if an.Normalize {
		if total := fetchPct + decodePct + corePct + memPct; total > 0 {
			scale = a.Stall / total
		} else {
			scale = 0
		}
	}
	a.Fetch = fetchPct * scale
	a.Decode = decodePct * scale
	a.Core = corePct * scale
	a.Memory = memPct * scale
	a.Frontend = a.Fetch + a.Decode
	a.Backend = a.Core + a.Memory

	if an.Level < Level3 || a.Tool != "ncu" {
		an.logAnalysis(a)
		return a
	}

	scaleDetail := func(parts map[string]float64) map[string]float64 {
		out := make(map[string]float64, len(parts))
		for k, v := range parts {
			out[k] = v * scale
		}
		return out
	}
	a.FetchDetail = scaleDetail(fetchParts)
	a.DecodeDetail = scaleDetail(decodeParts)
	a.CoreDetail = scaleDetail(coreParts)
	a.MemoryDetail = scaleDetail(memParts)
	an.logAnalysis(a)
	return a
}

// logAnalysis emits the per-analysis debug record (level-1 shares only; the
// full hierarchy is in the Analysis itself).
func (an *Analyzer) logAnalysis(a *Analysis) {
	if !an.log.On(obs.LevelDebug) {
		return
	}
	an.log.Debug("analysis computed",
		"kernel", a.Kernel, "level", a.Level, "tool", a.Tool,
		"retire", a.Fraction(a.Retire), "divergence", a.Fraction(a.Divergence),
		"frontend", a.Fraction(a.Frontend), "backend", a.Fraction(a.Backend))
}

// Aggregate combines per-kernel analyses into one application-level analysis
// weighted by each kernel's duration (paper §V.D: "average values, weighted
// by the length of each kernel"). Analyses must share tool/GPU/level.
func Aggregate(name string, as []*Analysis) *Analysis {
	if len(as) == 0 {
		return nil
	}
	var totalW float64
	for _, a := range as {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		totalW += w
	}
	out := &Analysis{
		Tool:       as[0].Tool,
		GPU:        as[0].GPU,
		CC:         as[0].CC,
		Kernel:     name,
		Level:      as[0].Level,
		Normalized: as[0].Normalized,
		IPCMax:     as[0].IPCMax,
		Metrics:    map[string]float64{},
		Weight:     totalW,
	}
	acc := func(dst *float64, v, w float64) { *dst += v * w / totalW }
	for _, a := range as {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		acc(&out.Retire, a.Retire, w)
		acc(&out.Divergence, a.Divergence, w)
		acc(&out.Frontend, a.Frontend, w)
		acc(&out.Backend, a.Backend, w)
		acc(&out.Stall, a.Stall, w)
		acc(&out.Branch, a.Branch, w)
		acc(&out.Replay, a.Replay, w)
		acc(&out.Fetch, a.Fetch, w)
		acc(&out.Decode, a.Decode, w)
		acc(&out.Core, a.Core, w)
		acc(&out.Memory, a.Memory, w)
		for k, v := range a.Metrics {
			out.Metrics[k] += v * w / totalW
		}
		mergeDetail := func(dst *map[string]float64, src map[string]float64) {
			if src == nil {
				return
			}
			if *dst == nil {
				*dst = map[string]float64{}
			}
			for k, v := range src {
				(*dst)[k] += v * w / totalW
			}
		}
		mergeDetail(&out.FetchDetail, a.FetchDetail)
		mergeDetail(&out.DecodeDetail, a.DecodeDetail)
		mergeDetail(&out.CoreDetail, a.CoreDetail)
		mergeDetail(&out.MemoryDetail, a.MemoryDetail)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// String renders the analysis as an indented hierarchy with percentages of
// IPC_MAX.
func (a *Analysis) String() string {
	var sb strings.Builder
	pct := func(v float64) string { return fmt.Sprintf("%5.1f%%", 100*a.Fraction(v)) }
	fmt.Fprintf(&sb, "Top-Down %s on %s (CC %s, %s), IPC_MAX=%.0f\n",
		a.Kernel, a.GPU, a.CC, a.Tool, a.IPCMax)
	fmt.Fprintf(&sb, "  Retire      %s\n", pct(a.Retire))
	fmt.Fprintf(&sb, "  Divergence  %s\n", pct(a.Divergence))
	if a.Level >= Level2 {
		fmt.Fprintf(&sb, "    Branch    %s\n", pct(a.Branch))
		fmt.Fprintf(&sb, "    Replay    %s\n", pct(a.Replay))
		fmt.Fprintf(&sb, "  Frontend    %s\n", pct(a.Frontend))
		fmt.Fprintf(&sb, "    Fetch     %s\n", pct(a.Fetch))
		a.detail(&sb, a.FetchDetail)
		fmt.Fprintf(&sb, "    Decode    %s\n", pct(a.Decode))
		a.detail(&sb, a.DecodeDetail)
		fmt.Fprintf(&sb, "  Backend     %s\n", pct(a.Backend))
		fmt.Fprintf(&sb, "    Core      %s\n", pct(a.Core))
		a.detail(&sb, a.CoreDetail)
		fmt.Fprintf(&sb, "    Memory    %s\n", pct(a.Memory))
		a.detail(&sb, a.MemoryDetail)
	} else {
		fmt.Fprintf(&sb, "  Stall       %s\n", pct(a.Stall))
	}
	return sb.String()
}

func (a *Analysis) detail(sb *strings.Builder, d map[string]float64) {
	if a.Level < Level3 || d == nil {
		return
	}
	for _, k := range sortedKeys(d) {
		fmt.Fprintf(sb, "      %-18s %5.1f%%\n", k, 100*a.Fraction(d[k]))
	}
}
