package check

import (
	"strings"
	"testing"

	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

// testSpec is a reduced Turing device: enough structure (2 SMs, sliced L2,
// multiple DRAM channels) to exercise every law cheaply.
func testSpec() *gpu.Spec { return gpu.QuadroRTX4000().WithSMs(2) }

// goodCounters returns a counter snapshot satisfying every counter law.
func goodCounters() sm.Counters {
	var c sm.Counters
	c.ElapsedCycles = 100
	c.ActiveCycles = 80
	c.ActiveWarpCycles = 240
	c.SubpActiveCycles = 160
	c.InstExecuted = 50
	c.InstIssued = 55
	c.ThreadInstExecuted = 50 * gpu.WarpSize
	c.WarpStateCycles[0] = 240 // histogram sums to ActiveWarpCycles
	c.BlocksLaunched = 2
	c.WarpsLaunched = 6
	return c
}

func lawCounts(inv *Invariants) map[string]int {
	m := make(map[string]int)
	for _, v := range inv.Violations() {
		m[v.Law]++
	}
	return m
}

func TestCheckCountersClean(t *testing.T) {
	inv := New()
	c := goodCounters()
	inv.CheckCounters("clean", &c)
	if err := inv.Err(); err != nil {
		t.Fatalf("clean counters violated laws: %v", err)
	}
}

func TestCheckCountersViolations(t *testing.T) {
	inv := New()
	c := goodCounters()
	c.WarpStateCycles[0]++     // state-histogram-sum
	c.ActiveCycles = 101       // active-within-elapsed
	c.SubpActiveCycles = 100   // subp-active-cover
	c.InstIssued = 49          // issued-covers-executed
	c.ThreadInstExecuted = 1e9 // thread-inst-bound
	inv.CheckCounters("bad", &c)
	want := []string{
		"state-histogram-sum", "active-within-elapsed", "subp-active-cover",
		"issued-covers-executed", "thread-inst-bound",
	}
	got := lawCounts(inv)
	for _, law := range want {
		if got[law] != 1 {
			t.Errorf("law %s: %d violations, want 1 (all: %v)", law, got[law], got)
		}
	}
	if inv.Count() != len(want) {
		t.Errorf("Count = %d, want %d", inv.Count(), len(want))
	}
	if err := inv.Err(); err == nil || !strings.Contains(err.Error(), "state-histogram-sum") {
		t.Errorf("Err should name the violated law, got %v", err)
	}
}

func TestNilReceiverSafe(t *testing.T) {
	var inv *Invariants
	c := goodCounters()
	inv.CheckCounters("nil", &c)
	inv.CheckMemSys("nil", mem.NewMemSys(testSpec()), 0)
	inv.CheckAnalysis(nil)
	inv.CheckEpoch(nil, 0) // nil receiver returns before touching the device
	inv.CheckLaunch(nil, nil)
	inv.Reset()
	if inv.Count() != 0 || inv.Err() != nil || inv.Violations() != nil {
		t.Fatal("nil receiver must be inert")
	}
}

func TestCheckMemSysClean(t *testing.T) {
	inv := New()
	ms := mem.NewMemSys(testSpec())
	// Touch the memory system so the residency laws see resident lines.
	for a := uint64(0); a < 1<<16; a += 128 {
		ms.Slice(ms.SliceOf(a)).Access(ms.Rebase(a))
	}
	inv.CheckMemSys("clean", ms, 12345)
	if err := inv.Err(); err != nil {
		t.Fatalf("clean memory system violated laws: %v", err)
	}
}

func TestViolationCapAndReset(t *testing.T) {
	inv := New()
	c := goodCounters()
	c.InstIssued = 0 // one violation per call
	c.InstExecuted = 1
	c.ThreadInstExecuted = 0
	for i := 0; i < maxRecorded+10; i++ {
		inv.CheckCounters("cap", &c)
	}
	if inv.Count() != maxRecorded+10 {
		t.Errorf("Count = %d, want %d", inv.Count(), maxRecorded+10)
	}
	if got := len(inv.Violations()); got != maxRecorded {
		t.Errorf("recorded %d violations, want cap %d", got, maxRecorded)
	}
	if err := inv.Err(); err == nil || !strings.Contains(err.Error(), "more") {
		t.Errorf("Err should summarise the overflow, got %v", err)
	}
	inv.Reset()
	if inv.Count() != 0 || inv.Err() != nil {
		t.Error("Reset must clear all state")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Law: "l", Context: "c", Detail: "d"}
	if got := v.String(); got != "l [c]: d" {
		t.Errorf("String = %q", got)
	}
}

// testProgram is a tiny two-branch kernel with global memory traffic: enough
// to put warps through stall states, caches, and DRAM on a real device.
func testProgram() *kernel.Program {
	b := kernel.NewBuilder("checkk")
	buf := b.Param(0)
	gid := b.GlobalIDX()
	idx := b.AndImm(gid, 255)
	addr := b.IMad(idx, b.MovImm(4), buf)
	v := b.Ldg(addr, 0, 4)
	p := b.ISetpImm(isa.CmpGT, b.AndImm(gid, 1), 0)
	b.If(p)
	v = b.IAddImm(v, 3)
	b.Else()
	v = b.IMulImm(v, 5)
	b.EndIf()
	i := b.ForImm(0, 4, 1)
	v = b.IAdd(v, i)
	b.EndFor()
	b.Stg(addr, v, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func launchOn(t *testing.T, inv *Invariants, trace uint64) *sim.RunResult {
	t.Helper()
	d := sim.NewDevice(testSpec())
	d.SetChecker(inv)
	if trace > 0 {
		d.EnableTrace(trace)
	}
	buf := d.Alloc(256 * 4)
	l := &kernel.Launch{
		Program: testProgram(),
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{buf},
	}
	return d.MustLaunch(l)
}

// TestDeviceHooksClean drives a real device with the checker attached,
// tracing on and off: every in-loop law must hold.
func TestDeviceHooksClean(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace uint64
	}{
		{"sequential", 0},
		{"sequential-traced", 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inv := New()
			launchOn(t, inv, tc.trace)
			if err := inv.Err(); err != nil {
				t.Fatalf("invariants violated on a clean run: %v", err)
			}
		})
	}
}

// TestCheckLaunchViolations corrupts a real RunResult field by field to prove
// the launch-level laws actually fire.
func TestCheckLaunchViolations(t *testing.T) {
	res := launchOn(t, nil, 0)
	d := sim.NewDevice(testSpec())

	mutations := []struct {
		law    string
		mutate func(r *sim.RunResult)
	}{
		{"per-sm-sum", func(r *sim.RunResult) { r.Counters.InstExecuted++; r.Counters.InstIssued++ }},
		{"sms-used", func(r *sim.RunResult) { r.SMsUsed++ }},
		{"block-conservation", func(r *sim.RunResult) { r.Blocks++ }},
		{"warps-per-block", func(r *sim.RunResult) {
			r.Counters.WarpsLaunched = 0
			r.PerSM[0].WarpsLaunched = 0
			r.PerSM[1].WarpsLaunched = 0
		}},
	}
	for _, m := range mutations {
		t.Run(m.law, func(t *testing.T) {
			cp := *res
			cp.Counters = res.Counters
			cp.PerSM = append([]sm.Counters(nil), res.PerSM...)
			m.mutate(&cp)
			inv := New()
			inv.CheckLaunch(d, &cp)
			if lawCounts(inv)[m.law] == 0 {
				t.Fatalf("mutation did not trigger %s (violations: %v)", m.law, inv.Violations())
			}
		})
	}
}

// goodAnalysis returns a level-2 normalised analysis obeying every closure.
func goodAnalysis() *core.Analysis {
	return &core.Analysis{
		Kernel: "k", Level: core.Level2, Normalized: true, IPCMax: 2,
		Retire: 0.5, Divergence: 0.1, Branch: 0.06, Replay: 0.04,
		Stall: 1.4, Frontend: 0.4, Fetch: 0.3, Decode: 0.1,
		Backend: 1.0, Core: 0.25, Memory: 0.75,
	}
}

func TestCheckAnalysis(t *testing.T) {
	inv := New()
	inv.CheckAnalysis(goodAnalysis())
	if err := inv.Err(); err != nil {
		t.Fatalf("closed analysis flagged: %v", err)
	}

	cases := []struct {
		law    string
		mutate func(a *core.Analysis)
	}{
		{"component-range", func(a *core.Analysis) { a.Retire = -0.5 }},
		{"component-range", func(a *core.Analysis) { a.Memory = a.IPCMax + 1 }},
		{"divergence-closure", func(a *core.Analysis) { a.Branch += 0.01 }},
		{"frontend-closure", func(a *core.Analysis) { a.Fetch += 0.01 }},
		{"backend-closure", func(a *core.Analysis) { a.Core += 0.01 }},
		{"stall-closure", func(a *core.Analysis) { a.Stall -= 0.01 }},
		{"level1-sum", func(a *core.Analysis) {
			a.Retire -= 0.01 // keeps every closure but breaks the stack total
		}},
	}
	for _, tc := range cases {
		t.Run(tc.law, func(t *testing.T) {
			a := goodAnalysis()
			tc.mutate(a)
			inv := New()
			inv.CheckAnalysis(a)
			if lawCounts(inv)[tc.law] == 0 {
				t.Fatalf("mutation did not trigger %s (violations: %v)", tc.law, inv.Violations())
			}
		})
	}

	t.Run("level3-detail", func(t *testing.T) {
		a := goodAnalysis()
		a.Level = core.Level3
		a.FetchDetail = map[string]float64{"no_inst": 0.2, "wait": 0.1}
		a.DecodeDetail = map[string]float64{"dispatch": 0.1}
		a.CoreDetail = map[string]float64{"alu": 0.25}
		a.MemoryDetail = map[string]float64{"lg": 0.5, "mio": 0.25}
		inv := New()
		inv.CheckAnalysis(a)
		if err := inv.Err(); err != nil {
			t.Fatalf("closed level-3 analysis flagged: %v", err)
		}
		a.MemoryDetail["lg"] += 0.01
		inv.Reset()
		inv.CheckAnalysis(a)
		if lawCounts(inv)["memory-detail-closure"] == 0 {
			t.Fatal("detail drift not flagged")
		}
	})

	// A level-3 leaf out of range, offset by a sibling so that its category
	// still closes, is reported: the range law covers every node.
	t.Run("level3-leaf-range", func(t *testing.T) {
		for _, memory := range []map[string]float64{
			{"lg": -0.1, "mio": 0.85},
			{"lg": 3, "mio": -2.25},
		} {
			a := goodAnalysis()
			a.Level = core.Level3
			a.FetchDetail = map[string]float64{"no_inst": 0.3}
			a.DecodeDetail = map[string]float64{"dispatch": 0.1}
			a.CoreDetail = map[string]float64{"alu": 0.25}
			a.MemoryDetail = memory
			inv := New()
			inv.CheckAnalysis(a)
			laws := lawCounts(inv)
			if laws["component-range"] == 0 || laws["memory-detail-closure"] != 0 {
				t.Errorf("MemoryDetail %v: violations %v, want component-range only", memory, inv.Violations())
			}
		}
	})

	t.Run("level1-no-closures", func(t *testing.T) {
		inv := New()
		inv.CheckAnalysis(&core.Analysis{Kernel: "k", Level: core.Level1, IPCMax: 2, Retire: 0.5, Stall: 1.5})
		if err := inv.Err(); err != nil {
			t.Fatalf("level-1 analysis must only face range checks: %v", err)
		}
	})
}
