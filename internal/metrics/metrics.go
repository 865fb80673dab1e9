// Package metrics implements the profiler metric layer the paper's tool
// consumes: the nvprof events+metrics model for compute capability < 7.2 and
// the unified ncu metrics model for CC >= 7.2 (paper §II). Every metric
// named in the paper's Tables I–VIII is present under its exact spelling,
// alongside the usual neighbours (achieved occupancy, hit rates, ...).
//
// A Metric is a named formula over raw PMU counters. Registries are gated by
// compute capability, so the Top-Down analyzer can ask "give me IPC_REPORTED
// on this device" and get the right tool's metric — nvprof's "ipc" or ncu's
// "smsp__inst_executed.avg.per_cycle_active".
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"gputopdown/internal/gpu"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sm"
)

// Context carries everything a metric formula may need.
type Context struct {
	Spec   *gpu.Spec
	Values pmu.Values
	// reads, when not nil, collects each counter the formula reads, in the
	// order of its first read: how Registry.add learns a metric's Counters.
	reads []pmu.CounterID
}

// get reads a raw counter from the context (0 when absent).
func (c *Context) get(id pmu.CounterID) float64 {
	if c.reads != nil && !slices.Contains(c.reads, id) {
		c.reads = append(c.reads, id)
	}
	return float64(c.Values[id])
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Metric is one named profiler metric.
type Metric struct {
	Name        string
	Description string
	// Counters lists the raw PMU counters the metric needs, in the order Eval
	// first reads them; the profiling session schedules them into passes.
	// Registry.add fills it in by running Eval once, so a counter the
	// formula reads cannot be missing from it.
	Counters []pmu.CounterID
	// Eval computes the metric from collected counters. It reads every
	// counter it uses whatever their values, as the formulas here do.
	Eval func(*Context) float64
}

// Registry is a set of metrics available on one tool/CC combination.
type Registry struct {
	tool    string
	byName  map[string]*Metric
	ordered []string
	probe   *Context // what add runs each formula on, made by the first add
}

// Tool returns "nvprof" or "ncu".
func (r *Registry) Tool() string { return r.tool }

// Lookup finds a metric by its exact name.
func (r *Registry) Lookup(name string) (*Metric, bool) {
	m, ok := r.byName[name]
	return m, ok
}

// Names returns all metric names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, len(r.ordered))
	copy(out, r.ordered)
	sort.Strings(out)
	return out
}

// CountersFor returns the deduplicated raw-counter request for a metric
// list, erroring on unknown names.
func (r *Registry) CountersFor(names []string) ([]pmu.CounterID, error) {
	seen := map[pmu.CounterID]bool{}
	var out []pmu.CounterID
	for _, n := range names {
		m, ok := r.byName[n]
		if !ok {
			return nil, fmt.Errorf("metrics: %s has no metric %q", r.tool, n)
		}
		for _, id := range m.Counters {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out, nil
}

// Eval computes a metric by name.
func (r *Registry) Eval(name string, ctx *Context) (float64, error) {
	m, ok := r.byName[name]
	if !ok {
		return 0, fmt.Errorf("metrics: %s has no metric %q", r.tool, name)
	}
	return m.Eval(ctx), nil
}

func (r *Registry) add(m *Metric) {
	if _, dup := r.byName[m.Name]; dup {
		panic("metrics: duplicate metric " + m.Name)
	}
	if r.probe == nil {
		r.probe = &Context{Spec: &probeSpec, reads: make([]pmu.CounterID, 0, pmu.NumCounters)}
	}
	r.probe.reads = r.probe.reads[:0]
	m.Eval(r.probe)
	m.Counters = slices.Clone(r.probe.reads)
	r.byName[m.Name] = m
	r.ordered = append(r.ordered, m.Name)
}

// probeSpec is the device Registry.add evaluates formulas on; they only
// read it.
var probeSpec gpu.Spec

// The registries ForCC shares: each is built once per process, on first use.
var (
	sharedNvprof = sync.OnceValue(Nvprof)
	sharedNCU    = sync.OnceValue(NCU)
)

// ForCC returns the metric registry matching a compute capability, the way
// the paper's tool picks nvprof below CC 7.2 and ncu at or above it. The
// registry is the process's one for its tool, shared by every caller: a
// Registry is read-only once built, so callers must not modify it or its
// metrics.
func ForCC(cc gpu.CC) *Registry {
	if cc.UsesUnifiedMetrics() {
		return sharedNCU()
	}
	return sharedNvprof()
}

func stall(s sm.WarpState) pmu.CounterID { return pmu.StallCounter(s) }

// nvprofStallGroups maps each nvprof stall event to the warp states it
// aggregates (see DESIGN.md for the mapping rationale). The groups partition
// every non-issuing state, so the percentages sum to 100.
var nvprofStallGroups = map[string][]sm.WarpState{
	"stall_inst_fetch":                 {sm.StateNoInstruction, sm.StateBranchResolving},
	"stall_sync":                       {sm.StateBarrier, sm.StateMembar},
	"stall_other":                      {sm.StateMisc, sm.StateDispatchStall, sm.StateSleeping, sm.StateDrain},
	"stall_exec_dependency":            {sm.StateWait, sm.StateShortScoreboard},
	"stall_memory_dependency":          {sm.StateLongScoreboard},
	"stall_pipe_busy":                  {sm.StateMathPipeThrottle},
	"stall_memory_throttle":            {sm.StateLGThrottle, sm.StateMIOThrottle},
	"stall_constant_memory_dependency": {sm.StateIMCMiss},
	"stall_texture":                    {sm.StateTEXThrottle},
	"stall_not_selected":               {sm.StateNotSelected},
}

// allStallStates lists every state that is not "selected": the denominator
// of nvprof's issue-stall-reason percentages.
func allStallStates() []sm.WarpState {
	out := make([]sm.WarpState, 0, sm.NumWarpStates-1)
	for s := sm.StateNotSelected; s < sm.NumWarpStates; s++ {
		out = append(out, s)
	}
	return out
}

func sumStates(ctx *Context, states []sm.WarpState) float64 {
	var t float64
	for _, s := range states {
		t += ctx.get(stall(s))
	}
	return t
}

// Nvprof returns the CC < 7.2 events+metrics registry (paper Tables I, III,
// V, VII).
func Nvprof() *Registry {
	r := &Registry{tool: "nvprof", byName: map[string]*Metric{}}

	r.add(&Metric{
		Name:        "ipc",
		Description: "Average number of executed instructions per cycle, per SM",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrInstExecuted), c.get(pmu.CtrActiveCycles))
		},
	})
	r.add(&Metric{
		Name:        "issued_ipc",
		Description: "Average number of instructions issued per cycle, per SM, including replays",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrInstIssued), c.get(pmu.CtrActiveCycles))
		},
	})
	r.add(&Metric{
		Name:        "warp_execution_efficiency",
		Description: "Ratio of average active threads per warp to the maximum (%)",
		Eval: func(c *Context) float64 {
			return 100 * safeDiv(c.get(pmu.CtrThreadInstExecuted), c.get(pmu.CtrInstExecuted)*32)
		},
	})

	// Stall percentages: each group over the sum of all non-issuing states.
	for name, states := range nvprofStallGroups {
		states := states
		r.add(&Metric{
			Name:        name,
			Description: "Percentage of issue stalls attributed to " + name[len("stall_"):],
			Eval: func(c *Context) float64 {
				return 100 * safeDiv(sumStates(c, states), sumStates(c, allStallStates()))
			},
		})
	}

	r.add(&Metric{
		Name:        "achieved_occupancy",
		Description: "Ratio of average active warps per cycle to maximum warps per SM",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrActiveWarpCycles),
				c.get(pmu.CtrActiveCycles)*float64(c.Spec.WarpsPerSM()))
		},
	})
	r.add(&Metric{
		Name:        "branch_efficiency",
		Description: "Ratio of non-divergent branches to total branches (%)",
		Eval: func(c *Context) float64 {
			b := c.get(pmu.CtrBranchInstrs)
			return 100 * safeDiv(b-c.get(pmu.CtrDivergentBranches), b)
		},
	})
	r.add(&Metric{
		Name:        "gld_transactions_per_request",
		Description: "Average sectors per global load",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrLoadSectors), c.get(pmu.CtrGlobalLoads))
		},
	})
	r.add(&Metric{
		Name:        "tex_cache_hit_rate",
		Description: "L1/tex cache hit rate (%)",
		Eval: func(c *Context) float64 {
			h := c.get(pmu.CtrL1Hits)
			return 100 * safeDiv(h, h+c.get(pmu.CtrL1Misses))
		},
	})
	r.add(&Metric{
		Name:        "l2_tex_hit_rate",
		Description: "L2 hit rate for L1 misses (%)",
		Eval: func(c *Context) float64 {
			h := c.get(pmu.CtrL2Hits)
			return 100 * safeDiv(h, h+c.get(pmu.CtrL2Misses))
		},
	})
	r.add(&Metric{
		Name:        "shared_replay_overhead",
		Description: "Average shared-memory replays per executed instruction",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrSharedBankConflicts), c.get(pmu.CtrInstExecuted))
		},
	})
	return r
}

// ncuStallNames maps the unified metric's state segment to the warp state,
// matching the paper's Tables VI and VIII name-for-name.
var ncuStallNames = map[string]sm.WarpState{
	"no_instruction":     sm.StateNoInstruction,
	"barrier":            sm.StateBarrier,
	"membar":             sm.StateMembar,
	"branch_resolving":   sm.StateBranchResolving,
	"sleeping":           sm.StateSleeping,
	"misc":               sm.StateMisc,
	"dispatch_stall":     sm.StateDispatchStall,
	"math_pipe_throttle": sm.StateMathPipeThrottle,
	"long_scoreboard":    sm.StateLongScoreboard,
	"imc_miss":           sm.StateIMCMiss,
	"mio_throttle":       sm.StateMIOThrottle,
	"drain":              sm.StateDrain,
	"lg_throttle":        sm.StateLGThrottle,
	"short_scoreboard":   sm.StateShortScoreboard,
	"wait":               sm.StateWait,
	"tex_throttle":       sm.StateTEXThrottle,
	"selected":           sm.StateSelected,
	"not_selected":       sm.StateNotSelected,
}

// NCU returns the CC >= 7.2 unified metrics registry (paper Tables II, IV,
// VI, VIII).
func NCU() *Registry {
	r := &Registry{tool: "ncu", byName: map[string]*Metric{}}

	r.add(&Metric{
		Name:        "smsp__inst_executed.avg.per_cycle_active",
		Description: "Average number of instructions per cycle, per SM",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrInstExecuted), c.get(pmu.CtrActiveCycles))
		},
	})
	r.add(&Metric{
		Name:        "smsp__inst_issued.avg.per_cycle_active",
		Description: "Average number of instructions issued per cycle, per SM, including replayed",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrInstIssued), c.get(pmu.CtrActiveCycles))
		},
	})
	r.add(&Metric{
		Name:        "smsp__thread_inst_executed_per_inst_executed.ratio",
		Description: "Ratio of average active threads per warp to the maximum",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrThreadInstExecuted), c.get(pmu.CtrInstExecuted))
		},
	})

	for seg, state := range ncuStallNames {
		state := state
		name := "smsp__warp_issue_stalled_" + seg + "_per_warp_active.pct"
		r.add(&Metric{
			Name:        name,
			Description: "Percentage of active warp-cycles stalled in " + seg,
			Eval: func(c *Context) float64 {
				return 100 * safeDiv(c.get(stall(state)), c.get(pmu.CtrActiveWarpCycles))
			},
		})
	}

	r.add(&Metric{
		Name:        "sm__warps_active.avg.pct_of_peak_sustained_active",
		Description: "Achieved occupancy (%)",
		Eval: func(c *Context) float64 {
			return 100 * safeDiv(c.get(pmu.CtrActiveWarpCycles),
				c.get(pmu.CtrActiveCycles)*float64(c.Spec.WarpsPerSM()))
		},
	})
	r.add(&Metric{
		Name:        "l1tex__t_sector_hit_rate.pct",
		Description: "L1TEX sector hit rate (%)",
		Eval: func(c *Context) float64 {
			h := c.get(pmu.CtrL1Hits)
			return 100 * safeDiv(h, h+c.get(pmu.CtrL1Misses))
		},
	})
	r.add(&Metric{
		Name:        "lts__t_sector_hit_rate.pct",
		Description: "L2 sector hit rate (%)",
		Eval: func(c *Context) float64 {
			h := c.get(pmu.CtrL2Hits)
			return 100 * safeDiv(h, h+c.get(pmu.CtrL2Misses))
		},
	})
	r.add(&Metric{
		Name:        "idc__request_hit_rate.pct",
		Description: "Immediate-constant cache hit rate (%)",
		Eval: func(c *Context) float64 {
			h := c.get(pmu.CtrIMCHits)
			return 100 * safeDiv(h, h+c.get(pmu.CtrIMCMisses))
		},
	})
	r.add(&Metric{
		Name:        "l1tex__average_t_sectors_per_request_pipe_lsu_mem_global_op_ld.ratio",
		Description: "Average sectors per global load request",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrLoadSectors), c.get(pmu.CtrGlobalLoads))
		},
	})
	r.add(&Metric{
		Name:        "sm__cycles_active.avg",
		Description: "Average active cycles per SM",
		Eval: func(c *Context) float64 {
			return safeDiv(c.get(pmu.CtrActiveCycles), float64(c.Spec.SMs))
		},
	})
	return r
}
