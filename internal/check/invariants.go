// Package check is the conformance subsystem: an in-loop invariant checker
// asserting the simulator's conservation laws (this file), a metamorphic
// property engine asserting that configuration perturbations never change
// results (metamorphic.go), and the canonical-report helpers behind the
// golden corpus gate (diff.go).
//
// The invariant checker follows the simulator-validation practice argued for
// in arXiv:1811.08933 and the counter-consistency methodology of
// arXiv:2102.05299: conservation laws are checked inside the model while it
// runs, not just via end-to-end diffs. Invariants implements sim.Checker, so
// one instance can be attached to a device (SetChecker) and to the analyzer
// output path at once.
//
// There is no law on the PMU pass merge. pmu.Values is a fixed array, so a
// scheduled counter cannot go missing from a merge, and checking each merged
// value against the launch's counter set would only re-read what the merge
// has just read; pmu.TestValuesMerge, cupti.TestMergedValuesMatchSinglePassTruth
// and the replay oracle pin the merge instead.
package check

import (
	"fmt"
	"math"
	"path"
	"strings"
	"sync"

	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
	"gputopdown/internal/mem"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

// analysisEps is the absolute tolerance, in IPC units, for the floating-point
// closure laws on Top-Down analyses. Components are O(IPC_MAX) ~ O(1); the
// slack covers duration-weighted aggregation across many kernels.
const analysisEps = 1e-6

// maxRecorded caps how many violations keep their full detail; Count still
// reflects every violation past the cap.
const maxRecorded = 64

// Violation is one failed conservation law.
type Violation struct {
	// Law names the invariant, e.g. "state-histogram-sum".
	Law string
	// Context locates the check: kernel, SM, slice, pass...
	Context string
	// Detail is the human-readable mismatch.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s [%s]: %s", v.Law, v.Context, v.Detail)
}

// Invariants records conservation-law violations observed by the in-loop
// hooks. All methods are nil-receiver safe and allocation-free on the nil
// receiver, so callers hold one possibly-nil *Invariants and call through it
// unconditionally — the disabled path is a nil check (benchmark-gated by
// BenchmarkChecksDisabled). Recording is mutex-protected: ProfileApps
// profiles apps on concurrent devices that share one recorder.
type Invariants struct {
	mu         sync.Mutex
	violations []Violation
	total      int
}

// New builds an empty invariant recorder.
func New() *Invariants { return &Invariants{} }

// Interface conformance: the device- and session-level hook contracts.
var _ sim.Checker = (*Invariants)(nil)

func (inv *Invariants) violate(law, context, format string, args ...any) {
	if inv == nil {
		return
	}
	inv.mu.Lock()
	inv.total++
	if len(inv.violations) < maxRecorded {
		inv.violations = append(inv.violations, Violation{
			Law:     law,
			Context: context,
			Detail:  fmt.Sprintf(format, args...),
		})
	}
	inv.mu.Unlock()
}

// Count returns the total number of violations observed, including any past
// the detail cap.
func (inv *Invariants) Count() int {
	if inv == nil {
		return 0
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return inv.total
}

// Violations returns a copy of the recorded violations (at most maxRecorded).
func (inv *Invariants) Violations() []Violation {
	if inv == nil {
		return nil
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return append([]Violation(nil), inv.violations...)
}

// Err returns nil when every checked law held, otherwise one error
// summarising the recorded violations.
func (inv *Invariants) Err() error {
	if inv == nil {
		return nil
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if inv.total == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "check: %d invariant violation(s)", inv.total)
	for i, v := range inv.violations {
		if i == 8 {
			fmt.Fprintf(&sb, "\n  ... %d more", inv.total-i)
			break
		}
		fmt.Fprintf(&sb, "\n  %s", v.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// Reset discards all recorded violations.
func (inv *Invariants) Reset() {
	if inv == nil {
		return
	}
	inv.mu.Lock()
	inv.violations = inv.violations[:0]
	inv.total = 0
	inv.mu.Unlock()
}

// CheckCounters asserts the counter conservation laws on one snapshot (a
// live cumulative SM counter set, a per-launch delta, or a trace-interval
// delta — the laws hold for all three):
//
//   - the warp-state histogram sums to ActiveWarpCycles: every active warp is
//     in exactly one state each cycle
//   - ActiveCycles <= ElapsedCycles
//   - SubpActiveCycles >= ActiveCycles: an active cycle has at least one
//     active subpartition
//   - InstIssued >= InstExecuted: issues include replays
//   - ThreadInstExecuted <= WarpSize * InstExecuted
func (inv *Invariants) CheckCounters(context string, c *sm.Counters) {
	if inv == nil {
		return
	}
	if got, want := c.StateSum(), c.ActiveWarpCycles; got != want {
		inv.violate("state-histogram-sum", context,
			"sum(WarpStateCycles) = %d, want ActiveWarpCycles = %d", got, want)
	}
	if c.ActiveCycles > c.ElapsedCycles {
		inv.violate("active-within-elapsed", context,
			"ActiveCycles = %d > ElapsedCycles = %d", c.ActiveCycles, c.ElapsedCycles)
	}
	if c.SubpActiveCycles < c.ActiveCycles {
		inv.violate("subp-active-cover", context,
			"SubpActiveCycles = %d < ActiveCycles = %d", c.SubpActiveCycles, c.ActiveCycles)
	}
	if c.InstIssued < c.InstExecuted {
		inv.violate("issued-covers-executed", context,
			"InstIssued = %d < InstExecuted = %d", c.InstIssued, c.InstExecuted)
	}
	if c.ThreadInstExecuted > gpu.WarpSize*c.InstExecuted {
		inv.violate("thread-inst-bound", context,
			"ThreadInstExecuted = %d > %d * InstExecuted = %d",
			c.ThreadInstExecuted, gpu.WarpSize, gpu.WarpSize*c.InstExecuted)
	}
}

// CheckMemSys asserts the memory-system conservation laws: per-slice
// line-residency bounds and the address<->(slice, local) bijection on a
// sample of addresses around the given probe point. There is no DRAM law: a
// channel is a latency and a bus cycle that only rises, so its completions
// are monotone by construction.
func (inv *Invariants) CheckMemSys(context string, ms *mem.MemSys, probe uint64) {
	if inv == nil {
		return
	}
	for i := 0; i < ms.NumSlices(); i++ {
		c := ms.Slice(i)
		if lines, cap := c.ResidentLines(), c.Sets()*c.Ways(); lines > cap {
			inv.violate("line-residency-bound", fmt.Sprintf("%s L2[%d]", context, i),
				"ResidentLines = %d > Sets*Ways = %d", lines, cap)
		}
		if c.ResidentSectors() < c.ResidentLines() {
			inv.violate("sector-residency", fmt.Sprintf("%s L2[%d]", context, i),
				"ResidentSectors = %d < ResidentLines = %d (a line with no valid sector)",
				c.ResidentSectors(), c.ResidentLines())
		}
	}
	// Slice-routing bijection on a deterministic probe sample: line counts
	// are conserved across Rebase exactly when Unrebase inverts it.
	for k := uint64(0); k < 8; k++ {
		addr := probe*2654435761 + k*4096 + k // spread over lines and slices
		if got := ms.Unrebase(ms.SliceOf(addr), ms.Rebase(addr)); got != addr {
			inv.violate("slice-rebase-bijection", context,
				"Unrebase(SliceOf, Rebase)(%#x) = %#x", addr, got)
		}
	}
}

// CheckEpoch is the stride-gated in-loop sweep (sim.Checker): per-SM counter
// laws, timed instruction queue order, and the memory-system laws, all on the
// live mid-launch state.
func (inv *Invariants) CheckEpoch(d *sim.Device, guard uint64) {
	if inv == nil {
		return
	}
	for i, s := range d.SMs {
		ctx := fmt.Sprintf("epoch %d SM %d", guard, i)
		c := s.Counters()
		inv.CheckCounters(ctx, &c)
		s.CheckQueues(func(queue string, subpart int) {
			inv.violate("timed-queue-monotone", ctx,
				"%s queue of subpartition %d out of order", queue, subpart)
		})
	}
	inv.CheckMemSys(fmt.Sprintf("epoch %d", guard), d.Mem, guard)
}

// CheckLaunch runs once per completed launch (sim.Checker): the per-launch
// counter deltas must obey the counter laws, the device aggregate must equal
// the per-SM sum, block accounting must close against the grid, and the
// trace samples (when present) must each be law-abiding deltas.
func (inv *Invariants) CheckLaunch(d *sim.Device, res *sim.RunResult) {
	if inv == nil {
		return
	}
	ctx := "launch " + res.Kernel
	inv.CheckCounters(ctx, &res.Counters)

	var sum sm.Counters
	for i := range res.PerSM {
		inv.CheckCounters(fmt.Sprintf("%s SM %d", ctx, i), &res.PerSM[i])
		sum.Add(&res.PerSM[i])
		if res.PerSM[i].BlocksLaunched == 0 {
			inv.violate("sms-used", ctx, "SM %d of the %d used ran no block", i, res.SMsUsed)
		}
	}
	if sum != res.Counters {
		inv.violate("per-sm-sum", ctx, "device aggregate != sum of per-SM deltas")
	}
	if len(res.PerSM) != res.SMsUsed {
		inv.violate("sms-used", ctx,
			"%d per-SM entries, want SMsUsed = %d", len(res.PerSM), res.SMsUsed)
	}
	if res.Counters.BlocksLaunched != uint64(res.Blocks) {
		inv.violate("block-conservation", ctx,
			"BlocksLaunched = %d, want grid size = %d", res.Counters.BlocksLaunched, res.Blocks)
	}
	if res.Counters.WarpsLaunched < res.Counters.BlocksLaunched {
		inv.violate("warps-per-block", ctx,
			"WarpsLaunched = %d < BlocksLaunched = %d",
			res.Counters.WarpsLaunched, res.Counters.BlocksLaunched)
	}
	for i := range res.Trace {
		inv.CheckCounters(fmt.Sprintf("%s trace[%d]", ctx, i), &res.Trace[i])
	}
	inv.CheckMemSys(ctx, d.Mem, res.Cycles)
}

// CheckAnalysis asserts the Top-Down closure laws on one analysis: children
// sum to parents at every level, components (level-3 leaves included) stay
// within [0, IPC_MAX], and in normalised mode the level-1 stack fills
// IPC_MAX exactly (the "fractions sum to 1" law), all within analysisEps.
func (inv *Invariants) CheckAnalysis(a *core.Analysis) {
	if inv == nil || a == nil {
		return
	}
	ctx := fmt.Sprintf("analysis %s L%d", a.Kernel, a.Level)
	closeTo := func(law string, got, want float64) {
		if math.Abs(got-want) > analysisEps {
			inv.violate(law, ctx, "got %.9f, want %.9f (|Δ| = %.3g)", got, want, math.Abs(got-want))
		}
	}
	inRange := func(name string, v float64) {
		if v < -analysisEps || v > a.IPCMax+analysisEps {
			inv.violate("component-range", ctx, "%s = %.9f outside [0, IPC_MAX=%.0f]", name, v, a.IPCMax)
		}
	}
	for _, n := range core.Nodes {
		v, detail := n.IPC(a), n.Detail(a)
		inRange(n.Name, v)
		var children, leaves float64
		for _, c := range n.Children {
			children += c.IPC(a)
		}
		for seg, d := range detail {
			inRange(seg, d)
			leaves += d
		}
		if a.Level >= core.Level2 && n.Children != nil {
			closeTo(path.Base(n.Path)+"-closure", children, v)
		}
		if a.Level >= core.Level3 && detail != nil {
			closeTo(path.Base(n.Path)+"-detail-closure", leaves, v)
		}
	}
	// Frontend+Backend can fall short of Stall only when the stall category
	// percentages degenerate to zero (scale = 0); it must never exceed it in
	// normalised mode.
	if a.Level < core.Level2 {
		return
	}
	if fb := a.Frontend + a.Backend; fb > a.Stall+analysisEps {
		inv.violate("stall-closure", ctx,
			"Frontend+Backend = %.9f > Stall = %.9f", fb, a.Stall)
	} else if a.Normalized && fb > 0 {
		closeTo("stall-closure", fb, a.Stall)
		// Level-1 stack: Retire + Divergence + Frontend + Backend fills
		// IPC_MAX (fractions sum to 1) unless Stall was clamped at zero.
		if a.Stall > 0 {
			closeTo("level1-sum", a.Retire+a.Divergence+fb, a.IPCMax)
		}
	}
}
