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
// share of IPC_MAX. Each component field is bound to one row of Nodes,
// through which everything that walks the hierarchy reads it.
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

// levelOne names each tool's metrics of equations (2)-(5) (Tables III and
// VI): executed IPC, warp execution efficiency and its value for a full
// warp, and issued IPC.
var levelOne = map[string]struct {
	ipc, warpEff, issued string
	fullWarp             float64
}{
	"ncu": {"smsp__inst_executed.avg.per_cycle_active",
		"smsp__thread_inst_executed_per_inst_executed.ratio", "smsp__inst_issued.avg.per_cycle_active", 32},
	"nvprof": {"ipc", "warp_execution_efficiency", "issued_ipc", 100},
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

	// hooks observe every analysis (nil: not observed; see SetHooks).
	hooks *obs.Hooks
}

// SetHooks attaches the analyzer's observers: every Analyze and
// AnalyzeTimeline call becomes a wall-clock span and feeds the analysis
// self-metrics, and each analysis is logged at debug level under component
// "core". Nil detaches them.
func (an *Analyzer) SetHooks(h *obs.Hooks) { an.hooks = h }

// NewAnalyzer builds an analyzer for a device at the given level, capped by
// CapLevel, on the process's shared registry of the device's tool.
func NewAnalyzer(spec *gpu.Spec, level int) *Analyzer {
	return &Analyzer{
		Spec:      spec,
		Registry:  metrics.ForCC(spec.Compute),
		Level:     CapLevel(spec, level),
		Normalize: true,
	}
}

// CapLevel clamps level to 1..3 and caps it at 2 on pre-unified-metrics
// devices, where the PMU lacks the detailed breakdown (paper Fig. 3).
func CapLevel(spec *gpu.Spec, level int) int {
	level = min(max(level, Level1), Level3)
	if !spec.Compute.UsesUnifiedMetrics() {
		level = min(level, Level2)
	}
	return level
}

// MetricNames returns the profiler metrics the analysis consumes at the
// configured level — what the paper's tool asks nvprof/ncu for.
func (an *Analyzer) MetricNames() []string {
	tool := an.Registry.Tool()
	t := levelOne[tool]
	names := []string{t.ipc, t.warpEff, t.issued}
	if an.Level >= Level2 {
		for _, n := range categories {
			names = append(names, n.metrics[tool]...)
		}
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
	if h := an.hooks; h != nil {
		spanStart := h.Trace().Now()
		wallStart := time.Now()
		defer func() {
			h.Analyses.Inc()
			h.AnalysisWall.Observe(time.Since(wallStart).Seconds())
			if tr := h.Trace(); tr != nil {
				tr.Complete(obs.PIDProfiler, 2, "core",
					"analyze "+kernelName, spanStart,
					map[string]any{"level": an.Level, "tool": an.Registry.Tool()})
			}
		}()
	}
	names := an.MetricNames()
	a := &Analysis{
		Tool:       an.Registry.Tool(),
		GPU:        an.Spec.Name,
		CC:         an.Spec.Compute,
		Kernel:     kernelName,
		Level:      an.Level,
		Normalized: an.Normalize,
		IPCMax:     an.Spec.IPCMax(),
		Metrics:    make(map[string]float64, len(names)),
	}
	ctx := &metrics.Context{Spec: an.Spec, Values: values}
	for _, n := range names {
		v, err := an.Registry.Eval(n, ctx)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		a.Metrics[n] = v
	}

	t := levelOne[a.Tool]
	ipcRep := a.Metrics[t.ipc]
	warpEff := a.Metrics[t.warpEff] / t.fullWarp
	ipcIss := a.Metrics[t.issued]
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

	// Level 2: stall category percentages (eqs. 6, 8–14), summed in place.
	var total float64
	for _, n := range categories {
		pct := n.ipc(a)
		for _, m := range n.metrics[a.Tool] {
			*pct += a.Metrics[m]
		}
		total += *pct
	}

	// Scale percentages into IPC: eq. (8)-(14) use pct/100 x IPC_STALL; the
	// normalised mode instead distributes IPC_STALL across the listed
	// categories so the stack closes (the paper's figure normalisation).
	scale := a.Stall / 100
	if an.Normalize {
		if total > 0 {
			scale = a.Stall / total
		} else {
			scale = 0
		}
	}
	detail := an.Level >= Level3 && a.Tool == "ncu"
	for _, n := range categories {
		v := n.ipc(a)
		*v *= scale
		*n.parent.ipc(a) += *v
		if detail {
			d := make(map[string]float64, len(n.NCU))
			for i, m := range n.metrics["ncu"] {
				d[n.NCU[i]] = a.Metrics[m] * scale
			}
			*n.detailOf(a) = d
		}
	}
	an.logAnalysis(a)
	return a
}

// logAnalysis emits the per-analysis debug record (level-1 shares only; the
// full hierarchy is in the Analysis itself).
func (an *Analyzer) logAnalysis(a *Analysis) {
	lg := an.hooks.Log(obs.Core)
	if !lg.On(obs.LevelDebug) {
		return
	}
	lg.Debug("analysis computed",
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
		Metrics:    make(map[string]float64, len(as[0].Metrics)),
		Weight:     totalW,
	}
	for _, a := range as {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		for _, n := range Nodes {
			*n.ipc(out) += *n.ipc(a) * w / totalW
			if src := n.Detail(a); src != nil {
				dst := n.detailOf(out)
				if *dst == nil {
					*dst = make(map[string]float64, len(src))
				}
				for k, v := range src {
					(*dst)[k] += v * w / totalW
				}
			}
		}
		for k, v := range a.Metrics {
			out.Metrics[k] += v * w / totalW
		}
	}
	return out
}

// String renders the analysis as an indented hierarchy with percentages of
// IPC_MAX.
func (a *Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Top-Down %s on %s (CC %s, %s), IPC_MAX=%.0f\n",
		a.Kernel, a.GPU, a.CC, a.Tool, a.IPCMax)
	Walk(a, func(n *Node, ipc float64) {
		if n.Depth < Level3 {
			fmt.Fprintf(&sb, "%*s%-*s%5.1f%%\n", 2*n.Depth, "", 14-2*n.Depth, n.Name, 100*a.Fraction(ipc))
		} else {
			fmt.Fprintf(&sb, "      %-18s %5.1f%%\n", n.Name, 100*a.Fraction(ipc))
		}
	})
	return sb.String()
}
