package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"gputopdown/internal/gpu"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sm"
)

// TestPaperTables verifies that every metric named in the paper's Tables
// I–VIII exists in the registry for the corresponding compute-capability
// range, under the exact paper spelling.
func TestPaperTables(t *testing.T) {
	nvprof := Nvprof()
	// Tables I, III, V, VII (CC < 7.2).
	nvprofNames := []string{
		// Table I / III
		"ipc", "warp_execution_efficiency", "issued_ipc",
		// Table V
		"stall_inst_fetch", "stall_sync", "stall_other",
		// Table VII
		"stall_exec_dependency", "stall_pipe_busy", "stall_memory_dependency",
		"stall_constant_memory_dependency", "stall_memory_throttle",
	}
	for _, n := range nvprofNames {
		if _, ok := nvprof.Lookup(n); !ok {
			t.Errorf("nvprof registry missing paper metric %q", n)
		}
	}

	ncu := NCU()
	// Tables II, IV, VI, VIII (CC >= 7.2).
	ncuNames := []string{
		"smsp__inst_executed.avg.per_cycle_active",
		"smsp__thread_inst_executed_per_inst_executed.ratio",
		"smsp__inst_issued.avg.per_cycle_active",
		"smsp__warp_issue_stalled_no_instruction_per_warp_active.pct",
		"smsp__warp_issue_stalled_barrier_per_warp_active.pct",
		"smsp__warp_issue_stalled_membar_per_warp_active.pct",
		"smsp__warp_issue_stalled_branch_resolving_per_warp_active.pct",
		"smsp__warp_issue_stalled_sleeping_per_warp_active.pct",
		"smsp__warp_issue_stalled_misc_per_warp_active.pct",
		"smsp__warp_issue_stalled_dispatch_stall_per_warp_active.pct",
		"smsp__warp_issue_stalled_math_pipe_throttle_per_warp_active.pct",
		"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
		"smsp__warp_issue_stalled_imc_miss_per_warp_active.pct",
		"smsp__warp_issue_stalled_mio_throttle_per_warp_active.pct",
		"smsp__warp_issue_stalled_drain_per_warp_active.pct",
		"smsp__warp_issue_stalled_lg_throttle_per_warp_active.pct",
		"smsp__warp_issue_stalled_short_scoreboard_per_warp_active.pct",
		"smsp__warp_issue_stalled_wait_per_warp_active.pct",
		"smsp__warp_issue_stalled_tex_throttle_per_warp_active.pct",
	}
	for _, n := range ncuNames {
		if _, ok := ncu.Lookup(n); !ok {
			t.Errorf("ncu registry missing paper metric %q", n)
		}
	}
}

func TestForCCDispatch(t *testing.T) {
	if ForCC(gpu.CC{Major: 6, Minor: 1}).Tool() != "nvprof" {
		t.Error("CC 6.1 should use nvprof")
	}
	if ForCC(gpu.CC{Major: 7, Minor: 5}).Tool() != "ncu" {
		t.Error("CC 7.5 should use ncu")
	}
	if ForCC(gpu.CC{Major: 7, Minor: 0}).Tool() != "nvprof" {
		t.Error("CC 7.0 should use nvprof")
	}
}

func ctxWith(values pmu.Values) *Context {
	return &Context{Spec: gpu.QuadroRTX4000(), Values: values}
}

func TestIPCFormulas(t *testing.T) {
	v := pmu.Values{
		pmu.CtrInstExecuted:       1000,
		pmu.CtrInstIssued:         1200,
		pmu.CtrActiveCycles:       500,
		pmu.CtrThreadInstExecuted: 16000,
	}
	c := ctxWith(v)
	nv := Nvprof()
	if got, _ := nv.Eval("ipc", c); got != 2.0 {
		t.Errorf("ipc = %g, want 2", got)
	}
	if got, _ := nv.Eval("issued_ipc", c); got != 2.4 {
		t.Errorf("issued_ipc = %g, want 2.4", got)
	}
	// 16000 thread insts / (1000*32) = 50%.
	if got, _ := nv.Eval("warp_execution_efficiency", c); got != 50 {
		t.Errorf("warp_execution_efficiency = %g, want 50", got)
	}
	ncu := NCU()
	if got, _ := ncu.Eval("smsp__inst_executed.avg.per_cycle_active", c); got != 2.0 {
		t.Errorf("ncu ipc = %g", got)
	}
	// ncu ratio is threads-per-instruction, 0..32.
	if got, _ := ncu.Eval("smsp__thread_inst_executed_per_inst_executed.ratio", c); got != 16 {
		t.Errorf("ncu thread ratio = %g, want 16", got)
	}
}

func TestNvprofStallPercentagesSumTo100(t *testing.T) {
	f := func(raw [sm.NumWarpStates]uint16) bool {
		v := pmu.Values{}
		var any bool
		for s := sm.StateNotSelected; s < sm.NumWarpStates; s++ {
			v[pmu.StallCounter(s)] = uint64(raw[s])
			if raw[s] > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		c := ctxWith(v)
		nv := Nvprof()
		var sum float64
		for name := range nvprofStallGroups {
			g, _ := nv.Eval(name, c)
			if g < 0 || g > 100.0001 {
				return false
			}
			sum += g
		}
		return math.Abs(sum-100) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNcuStallPercentagesSumTo100OverAllStates(t *testing.T) {
	v := pmu.Values{}
	var total uint64
	for s := sm.WarpState(0); s < sm.NumWarpStates; s++ {
		v[pmu.StallCounter(s)] = uint64(s + 1)
		total += uint64(s + 1)
	}
	v[pmu.CtrActiveWarpCycles] = total
	c := ctxWith(v)
	ncu := NCU()
	var sum float64
	for seg := range ncuStallNames {
		g, err := ncu.Eval("smsp__warp_issue_stalled_"+seg+"_per_warp_active.pct", c)
		if err != nil {
			t.Fatal(err)
		}
		sum += g
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("ncu state percentages sum to %g, want 100", sum)
	}
}

func TestCountersForUnknownMetric(t *testing.T) {
	if _, err := Nvprof().CountersFor([]string{"ipc", "bogus"}); err == nil {
		t.Error("unknown metric accepted")
	}
	ids, err := Nvprof().CountersFor([]string{"ipc", "issued_ipc"})
	if err != nil {
		t.Fatal(err)
	}
	// Deduplicated: ipc and issued_ipc share CtrActiveCycles.
	seen := map[pmu.CounterID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate counter %s in request", pmu.Name(id))
		}
		seen[id] = true
	}
	if !seen[pmu.CtrActiveCycles] || !seen[pmu.CtrInstExecuted] || !seen[pmu.CtrInstIssued] {
		t.Errorf("request missing expected counters: %v", ids)
	}
}

func TestEvalUnknown(t *testing.T) {
	if _, err := NCU().Eval("nope", ctxWith(pmu.Values{})); err == nil {
		t.Error("unknown metric evaluated")
	}
}

func TestSafeDivZeroDenominators(t *testing.T) {
	c := ctxWith(pmu.Values{})
	for _, reg := range []*Registry{Nvprof(), NCU()} {
		for _, n := range reg.Names() {
			got, err := reg.Eval(n, c)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s/%s = %g on empty values", reg.Tool(), n, got)
			}
		}
	}
}

func TestOccupancyMetrics(t *testing.T) {
	spec := gpu.QuadroRTX4000() // 32 warps per SM
	v := pmu.Values{
		pmu.CtrActiveWarpCycles: 1600,
		pmu.CtrActiveCycles:     100,
	}
	c := &Context{Spec: spec, Values: v}
	if got, _ := Nvprof().Eval("achieved_occupancy", c); got != 0.5 {
		t.Errorf("achieved_occupancy = %g, want 0.5", got)
	}
	if got, _ := NCU().Eval("sm__warps_active.avg.pct_of_peak_sustained_active", c); got != 50 {
		t.Errorf("ncu occupancy = %g, want 50", got)
	}
}

func TestHitRates(t *testing.T) {
	v := pmu.Values{
		pmu.CtrL1Hits: 75, pmu.CtrL1Misses: 25,
		pmu.CtrL2Hits: 30, pmu.CtrL2Misses: 10,
		pmu.CtrIMCHits: 9, pmu.CtrIMCMisses: 1,
	}
	c := ctxWith(v)
	ncu := NCU()
	if got, _ := ncu.Eval("l1tex__t_sector_hit_rate.pct", c); got != 75 {
		t.Errorf("L1 hit rate = %g", got)
	}
	if got, _ := ncu.Eval("lts__t_sector_hit_rate.pct", c); got != 75 {
		t.Errorf("L2 hit rate = %g", got)
	}
	if got, _ := ncu.Eval("idc__request_hit_rate.pct", c); got != 90 {
		t.Errorf("IMC hit rate = %g", got)
	}
	nv := Nvprof()
	if got, _ := nv.Eval("tex_cache_hit_rate", c); got != 75 {
		t.Errorf("nvprof L1 hit rate = %g", got)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	for _, reg := range []*Registry{Nvprof(), NCU()} {
		names := reg.Names()
		if len(names) < 10 {
			t.Errorf("%s registry suspiciously small: %d metrics", reg.Tool(), len(names))
		}
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("%s names not sorted/unique at %q", reg.Tool(), names[i])
			}
		}
		for _, n := range names {
			m, _ := reg.Lookup(n)
			if m.Description == "" {
				t.Errorf("%s/%s has no description", reg.Tool(), n)
			}
			if len(m.Counters) == 0 {
				t.Errorf("%s/%s declares no counters", reg.Tool(), n)
			}
			for _, id := range m.Counters {
				if !pmu.Valid(id) {
					t.Errorf("%s/%s references invalid counter %d", reg.Tool(), n, id)
				}
			}
		}
	}
}

// TestMetricCountersAreWhatTheFormulaReads perturbs each counter in turn
// under every metric of both registries: the counters whose change moves the
// value must be exactly the metric's Counters, each listed once. A counter
// missing from the list would read 0 in a profile; an extra one would cost
// passes for nothing.
func TestMetricCountersAreWhatTheFormulaReads(t *testing.T) {
	var base pmu.Values
	for id := range base {
		base[id] = 1000 + 37*uint64(id) // distinct and nonzero: no formula divides by zero
	}
	spec := gpu.GTX1070()
	for _, reg := range []*Registry{Nvprof(), NCU()} {
		for _, n := range reg.Names() {
			m, _ := reg.Lookup(n)
			want := m.Eval(&Context{Spec: spec, Values: base})
			listed := map[pmu.CounterID]bool{}
			for _, id := range m.Counters {
				if listed[id] {
					t.Errorf("%s/%s lists %s twice", reg.Tool(), n, pmu.Name(id))
				}
				listed[id] = true
			}
			for _, id := range pmu.AllCounters() {
				v := base
				v[id] = 3*v[id] + 11
				moved := m.Eval(&Context{Spec: spec, Values: v}) != want
				if moved != listed[id] {
					t.Errorf("%s/%s: %s moves the value %v, listed %v", reg.Tool(), n, pmu.Name(id), moved, listed[id])
				}
			}
		}
	}
}
