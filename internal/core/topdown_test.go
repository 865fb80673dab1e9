package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gputopdown/internal/gpu"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sm"
)

// ncuValues builds a counter set for the Turing path. ipc/issued are per
// active cycle; eff is warp efficiency in [0,1]; stallCycles spreads
// warp-cycles across the given states.
func ncuValues(activeCycles, instExec, instIss uint64, eff float64, states map[sm.WarpState]uint64) pmu.Values {
	v := pmu.Values{
		pmu.CtrActiveCycles:       activeCycles,
		pmu.CtrInstExecuted:       instExec,
		pmu.CtrInstIssued:         instIss,
		pmu.CtrThreadInstExecuted: uint64(float64(instExec*32) * eff),
	}
	var warpCycles uint64
	for s, c := range states {
		v[pmu.StallCounter(s)] = c
		warpCycles += c
	}
	v[pmu.CtrActiveWarpCycles] = warpCycles
	return v
}

func turingAnalyzer(level int) *Analyzer { return NewAnalyzer(gpu.QuadroRTX4000(), level) }
func pascalAnalyzer(level int) *Analyzer { return NewAnalyzer(gpu.GTX1070(), level) }

func TestLevelCapOnPascal(t *testing.T) {
	if a := pascalAnalyzer(3); a.Level != Level2 {
		t.Errorf("Pascal level-3 request capped to %d, want 2", a.Level)
	}
	if a := turingAnalyzer(3); a.Level != Level3 {
		t.Errorf("Turing level = %d, want 3", a.Level)
	}
	if a := turingAnalyzer(0); a.Level != Level1 {
		t.Errorf("level 0 clamped to %d, want 1", a.Level)
	}
	if a := turingAnalyzer(9); a.Level != Level3 {
		t.Errorf("level 9 clamped to %d, want 3", a.Level)
	}
}

func TestToolDispatch(t *testing.T) {
	if got := turingAnalyzer(1).Registry.Tool(); got != "ncu" {
		t.Errorf("Turing tool = %s", got)
	}
	if got := pascalAnalyzer(1).Registry.Tool(); got != "nvprof" {
		t.Errorf("Pascal tool = %s", got)
	}
}

// TestEquationIdentities checks the paper's equations (1)-(5),(7) on a
// synthetic profile.
func TestEquationIdentities(t *testing.T) {
	// IPC_REPORTED=1.0, warp_eff=0.75, issued=1.2 on IPC_MAX=2.
	v := ncuValues(1000, 1000, 1200, 0.75, map[sm.WarpState]uint64{
		sm.StateLongScoreboard: 500,
		sm.StateNoInstruction:  100,
	})
	a := turingAnalyzer(3).Analyze("k", v)
	if math.Abs(a.Retire-0.75) > 1e-9 {
		t.Errorf("Retire = %g, want 0.75", a.Retire)
	}
	if math.Abs(a.Branch-0.25) > 1e-9 {
		t.Errorf("Branch = %g, want 0.25", a.Branch)
	}
	if math.Abs(a.Replay-0.2) > 1e-9 {
		t.Errorf("Replay = %g, want 0.2", a.Replay)
	}
	if math.Abs(a.Divergence-0.45) > 1e-9 {
		t.Errorf("Divergence = %g", a.Divergence)
	}
	// eq (7): stall = 2 - 0.75 - 0.45 = 0.8.
	if math.Abs(a.Stall-0.8) > 1e-9 {
		t.Errorf("Stall = %g, want 0.8", a.Stall)
	}
	// eq (1): components close.
	if sum := a.Retire + a.Divergence + a.Stall; math.Abs(sum-a.IPCMax) > 1e-9 {
		t.Errorf("eq(1) violated: %g != %g", sum, a.IPCMax)
	}
	// Normalised mode: Frontend+Backend == Stall.
	if math.Abs(a.Frontend+a.Backend-a.Stall) > 1e-9 {
		t.Errorf("normalised FE+BE = %g != stall %g", a.Frontend+a.Backend, a.Stall)
	}
	// 500/600 of the stall is memory (long_scoreboard), 100/600 fetch.
	if math.Abs(a.Memory-0.8*5.0/6.0) > 1e-9 {
		t.Errorf("Memory = %g", a.Memory)
	}
	if math.Abs(a.Fetch-0.8/6.0) > 1e-9 {
		t.Errorf("Fetch = %g", a.Fetch)
	}
	// Level 3 details present and summing to their level-2 parents.
	var memSum float64
	for _, x := range a.MemoryDetail {
		memSum += x
	}
	if math.Abs(memSum-a.Memory) > 1e-9 {
		t.Errorf("memory detail sum %g != %g", memSum, a.Memory)
	}
	if a.MemoryDetail["long_scoreboard"] == 0 {
		t.Error("long_scoreboard detail missing")
	}
}

func TestRawModeUsesPaperEquations(t *testing.T) {
	// Unnormalised mode follows eq. (8)-(14) literally: pct/100 x stall.
	an := turingAnalyzer(2)
	an.Normalize = false
	v := ncuValues(1000, 500, 500, 1.0, map[sm.WarpState]uint64{
		sm.StateLongScoreboard: 400, // 40% of warp-cycles
		sm.StateNotSelected:    600, // unlisted in tables; leaves residual
	})
	a := an.Analyze("k", v)
	// stall = 2 - 0.5 = 1.5; memory = 40/100 * 1.5 = 0.6.
	if math.Abs(a.Memory-0.6) > 1e-9 {
		t.Errorf("raw Memory = %g, want 0.6", a.Memory)
	}
	if a.Frontend+a.Backend >= a.Stall {
		t.Error("raw mode should leave a residual with unlisted states")
	}
}

func TestNvprofPathEquations(t *testing.T) {
	// Pascal path: nvprof metrics drive the same equations.
	v := pmu.Values{
		pmu.CtrActiveCycles:       1000,
		pmu.CtrInstExecuted:       2000,
		pmu.CtrInstIssued:         2200,
		pmu.CtrThreadInstExecuted: 2000 * 32, // full efficiency
	}
	// nvprof stall groups: memory_dependency <- long_scoreboard.
	v[pmu.StallCounter(sm.StateLongScoreboard)] = 300
	v[pmu.StallCounter(sm.StateNoInstruction)] = 100
	a := pascalAnalyzer(2).Analyze("k", v)
	if a.Tool != "nvprof" {
		t.Fatalf("tool = %s", a.Tool)
	}
	// ipc=2, eff=1: retire=2, branch=0, replay=0.2, stall=4-2.2=1.8.
	if math.Abs(a.Retire-2) > 1e-9 || math.Abs(a.Replay-0.2) > 1e-9 {
		t.Errorf("retire/replay = %g/%g", a.Retire, a.Replay)
	}
	if math.Abs(a.Stall-1.8) > 1e-9 {
		t.Errorf("stall = %g, want 1.8", a.Stall)
	}
	// memory:fetch = 3:1 of the stall.
	if math.Abs(a.Memory-1.35) > 1e-9 || math.Abs(a.Fetch-0.45) > 1e-9 {
		t.Errorf("memory/fetch = %g/%g, want 1.35/0.45", a.Memory, a.Fetch)
	}
	if a.FetchDetail != nil {
		t.Error("nvprof path produced level-3 detail")
	}
}

// Property: for arbitrary counter values the analysis is well-formed: no
// negative components, eq (1) closes in normalised mode, details sum to
// parents.
func TestAnalysisWellFormedProperty(t *testing.T) {
	an := turingAnalyzer(3)
	f := func(exec, issExtra, effRaw uint16, s1, s2, s3, s4 uint16) bool {
		active := uint64(1000)
		instExec := uint64(exec)
		instIss := instExec + uint64(issExtra)%500
		// Keep issued within the dispatch bound so eq (7) stays positive.
		if instIss > active*2 {
			instIss = active * 2
		}
		if instExec > instIss {
			instExec = instIss
		}
		eff := float64(effRaw%1001) / 1000
		v := ncuValues(active, instExec, instIss, eff, map[sm.WarpState]uint64{
			sm.StateLongScoreboard:   uint64(s1),
			sm.StateNoInstruction:    uint64(s2),
			sm.StateMathPipeThrottle: uint64(s3),
			sm.StateBarrier:          uint64(s4),
		})
		a := an.Analyze("q", v)
		for _, x := range []float64{a.Retire, a.Branch, a.Replay, a.Fetch, a.Decode, a.Core, a.Memory, a.Stall} {
			if x < -1e-9 || math.IsNaN(x) {
				return false
			}
		}
		if math.Abs(a.Retire+a.Divergence+a.Frontend+a.Backend-a.IPCMax) > 1e-6 {
			// Closure holds whenever at least one listed stall state is
			// non-zero; with all-zero states the stall cannot be attributed.
			if s1|s2|s3|s4 != 0 {
				return false
			}
		}
		sumDetail := func(d map[string]float64) float64 {
			var t float64
			for _, x := range d {
				t += x
			}
			return t
		}
		if math.Abs(sumDetail(a.MemoryDetail)-a.Memory) > 1e-6 {
			return false
		}
		if math.Abs(sumDetail(a.FetchDetail)-a.Fetch) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregateWeighted(t *testing.T) {
	an := turingAnalyzer(2)
	a1 := an.Analyze("k1", ncuValues(1000, 1500, 1500, 1.0, map[sm.WarpState]uint64{sm.StateLongScoreboard: 100}))
	a2 := an.Analyze("k2", ncuValues(1000, 500, 500, 1.0, map[sm.WarpState]uint64{sm.StateNoInstruction: 100}))
	a1.Weight = 3000
	a2.Weight = 1000
	agg := Aggregate("app", []*Analysis{a1, a2})
	wantRetire := (a1.Retire*3 + a2.Retire) / 4
	if math.Abs(agg.Retire-wantRetire) > 1e-9 {
		t.Errorf("aggregate retire = %g, want %g", agg.Retire, wantRetire)
	}
	if agg.Kernel != "app" || agg.Weight != 4000 {
		t.Errorf("aggregate meta: %s %g", agg.Kernel, agg.Weight)
	}
	// Closure preserved by linearity.
	if math.Abs(agg.Retire+agg.Divergence+agg.Frontend+agg.Backend-agg.IPCMax) > 1e-9 {
		t.Error("aggregate closure violated")
	}
	if Aggregate("none", nil) != nil {
		t.Error("empty aggregate should be nil")
	}
}

func TestAggregateDefaultsWeight(t *testing.T) {
	an := turingAnalyzer(1)
	a1 := an.Analyze("k1", ncuValues(1000, 2000, 2000, 1.0, nil))
	a2 := an.Analyze("k2", ncuValues(1000, 0, 0, 1.0, nil))
	agg := Aggregate("app", []*Analysis{a1, a2})
	if math.Abs(agg.Retire-1.0) > 1e-9 { // (2.0 + 0)/2
		t.Errorf("unweighted aggregate retire = %g, want 1.0", agg.Retire)
	}
}

// TestMetricNamesMatchLevel: the metric list, order included, feeds the
// counter request and the pass schedule, so it is pinned for both tools at
// every level.
func TestMetricNamesMatchLevel(t *testing.T) {
	ncu1 := []string{"smsp__inst_executed.avg.per_cycle_active",
		"smsp__thread_inst_executed_per_inst_executed.ratio", "smsp__inst_issued.avg.per_cycle_active"}
	var ncu2 []string
	for _, seg := range strings.Fields(`no_instruction barrier membar branch_resolving sleeping
		misc dispatch_stall math_pipe_throttle wait tex_throttle
		long_scoreboard imc_miss mio_throttle drain lg_throttle short_scoreboard`) {
		ncu2 = append(ncu2, "smsp__warp_issue_stalled_"+seg+"_per_warp_active.pct")
	}
	nvprof1 := []string{"ipc", "warp_execution_efficiency", "issued_ipc"}
	nvprof2 := strings.Fields(`stall_inst_fetch stall_sync stall_other stall_exec_dependency
		stall_pipe_busy stall_memory_dependency stall_constant_memory_dependency stall_memory_throttle`)
	for level, want := range map[int][2][]string{
		Level1: {ncu1, nvprof1},
		Level2: {slices.Concat(ncu1, ncu2), slices.Concat(nvprof1, nvprof2)},
		Level3: {slices.Concat(ncu1, ncu2), slices.Concat(nvprof1, nvprof2)},
	} {
		if got := turingAnalyzer(level).MetricNames(); !slices.Equal(got, want[0]) {
			t.Errorf("ncu level %d: MetricNames = %q, want %q", level, got, want[0])
		}
		if got := pascalAnalyzer(level).MetricNames(); !slices.Equal(got, want[1]) {
			t.Errorf("nvprof level %d: MetricNames = %q, want %q", level, got, want[1])
		}
	}
}

func TestCounterRequestSchedulesToEightPasses(t *testing.T) {
	req, err := turingAnalyzer(3).CounterRequest()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pmu.BuildSchedule(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.NumPasses(); got != 8 {
		t.Errorf("level-3 analysis needs %d passes, want 8 (paper §V.E)", got)
	}
	// Level 1 should be single-pass: all free-running counters.
	req1, _ := turingAnalyzer(1).CounterRequest()
	sched1, _ := pmu.BuildSchedule(req1)
	if got := sched1.NumPasses(); got != 1 {
		t.Errorf("level-1 analysis needs %d passes, want 1", got)
	}
}

func TestStringRendering(t *testing.T) {
	v := ncuValues(1000, 1000, 1100, 0.9, map[sm.WarpState]uint64{
		sm.StateLongScoreboard: 300,
		sm.StateIMCMiss:        100,
	})
	a := turingAnalyzer(3).Analyze("srad_cuda_1", v)
	s := a.String()
	for _, want := range []string{"srad_cuda_1", "Retire", "Divergence", "Frontend", "Backend", "Memory", "long_scoreboard", "imc_miss"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	a1 := turingAnalyzer(1).Analyze("k", v)
	if !strings.Contains(a1.String(), "Stall") {
		t.Error("level-1 rendering missing Stall line")
	}
}

func TestFractionAndDegradation(t *testing.T) {
	a := &Analysis{IPCMax: 2, Retire: 0.5}
	if a.Fraction(1) != 0.5 {
		t.Error("Fraction broken")
	}
	if a.Degradation() != 1.5 {
		t.Error("Degradation broken")
	}
	z := &Analysis{}
	if z.Fraction(1) != 0 {
		t.Error("zero IPCMax Fraction not guarded")
	}
}

func TestWarpEfficiencyClamped(t *testing.T) {
	// Divergence mitigation can push thread_inst above inst*32 in theory;
	// efficiency must clamp at 1 so Branch never goes negative.
	v := ncuValues(1000, 1000, 1000, 1.2, map[sm.WarpState]uint64{sm.StateWait: 10})
	a := turingAnalyzer(2).Analyze("k", v)
	if a.Branch < 0 {
		t.Errorf("Branch = %g, want >= 0", a.Branch)
	}
}

// TestNewAnalyzerSharesRegistry: every analyzer of a tool reads the
// process's one metric registry, so an analyzer after the first allocates
// itself and nothing else, and CapLevel is the level NewAnalyzer keeps.
func TestNewAnalyzerSharesRegistry(t *testing.T) {
	for _, spec := range []*gpu.Spec{gpu.QuadroRTX4000(), gpu.GTX1070()} {
		first := NewAnalyzer(spec, Level3)
		var an *Analyzer
		if allocs := testing.AllocsPerRun(20, func() { an = NewAnalyzer(spec, Level3) }); allocs > 1 {
			t.Errorf("%s: a second NewAnalyzer makes %.0f allocations, want 1: it built a registry", spec.Name, allocs)
		}
		if an.Registry != first.Registry {
			t.Errorf("%s: two analyzers hold two %s registries", spec.Name, first.Registry.Tool())
		}
		for level := Level1 - 1; level <= Level3+1; level++ {
			if got, want := CapLevel(spec, level), NewAnalyzer(spec, level).Level; got != want {
				t.Errorf("%s: CapLevel(%d) = %d, NewAnalyzer keeps %d", spec.Name, level, got, want)
			}
		}
	}
}
