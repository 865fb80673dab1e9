// Package sm implements the Streaming Multiprocessor pipeline model: warps
// with SIMT reconvergence stacks, instruction fetch through a private
// instruction cache, greedy-then-oldest / round-robin warp scheduling,
// register scoreboarding, functional-unit initiation intervals, the memory
// instruction queues and — centrally for the Top-Down methodology — a
// per-cycle warp-state classifier that assigns every active warp to exactly
// one of the ncu warp-stall states each cycle.
//
// The package also interprets the mini ISA functionally (real per-thread
// register values, addresses and predicates), so cache hits, divergence and
// bank conflicts emerge from the data the workload actually processes.
package sm

import (
	"fmt"

	"gputopdown/internal/mem"
)

// WarpState is the scheduler-eye view of one warp in one cycle. The first
// two states are the productive ones; the rest are the stall taxonomy of
// NVIDIA's smsp__warp_issue_stalled_* metrics (paper Tables VI and VIII).
type WarpState uint8

// Warp states. Every active warp is in exactly one state each cycle.
const (
	// StateSelected: the warp issued an instruction this cycle.
	StateSelected WarpState = iota
	// StateNotSelected: eligible but another warp was picked.
	StateNotSelected
	// StateNoInstruction: waiting on instruction fetch / icache miss.
	StateNoInstruction
	// StateBarrier: waiting for sibling warps at a CTA barrier.
	StateBarrier
	// StateMembar: waiting on a memory barrier.
	StateMembar
	// StateBranchResolving: waiting for a branch target / PC update.
	StateBranchResolving
	// StateSleeping: all threads blocked, yielded or asleep.
	StateSleeping
	// StateMisc: miscellaneous, including register-bank conflicts.
	StateMisc
	// StateDispatchStall: waiting on a dispatch conflict.
	StateDispatchStall
	// StateMathPipeThrottle: required execution pipe busy.
	StateMathPipeThrottle
	// StateLongScoreboard: waiting on an L1TEX (global/local/texture) load
	// dependency.
	StateLongScoreboard
	// StateShortScoreboard: waiting on an MIO (shared memory) dependency.
	StateShortScoreboard
	// StateWait: waiting on a fixed-latency execution dependency.
	StateWait
	// StateIMCMiss: waiting on an immediate-constant cache miss.
	StateIMCMiss
	// StateMIOThrottle: MIO instruction queue full.
	StateMIOThrottle
	// StateLGThrottle: LG (load/global) instruction queue full.
	StateLGThrottle
	// StateTEXThrottle: texture queue full.
	StateTEXThrottle
	// StateDrain: warp exited, waiting for outstanding stores.
	StateDrain
	// NumWarpStates is the number of per-cycle warp states.
	NumWarpStates = 18
)

var warpStateNames = [NumWarpStates]string{
	"selected", "not_selected", "no_instruction", "barrier", "membar",
	"branch_resolving", "sleeping", "misc", "dispatch_stall",
	"math_pipe_throttle", "long_scoreboard", "short_scoreboard", "wait",
	"imc_miss", "mio_throttle", "lg_throttle", "tex_throttle", "drain",
}

// String implements fmt.Stringer.
func (s WarpState) String() string {
	if int(s) < NumWarpStates {
		return warpStateNames[s]
	}
	return fmt.Sprintf("state_%d", uint8(s))
}

// Counters is everything one SM counts during execution. The PMU exposes a
// selected subset per pass; metrics (internal/metrics) are ratios of these.
type Counters struct {
	// Cycles the SM had at least one resident warp.
	ActiveCycles uint64
	// ElapsedCycles since the kernel launched (includes pre-work idle).
	ElapsedCycles uint64
	// Sum over cycles of the number of active warps (denominator of the
	// per_warp_active.pct metrics).
	ActiveWarpCycles uint64
	// Sum over cycles of active subpartitions (subpartitions with >= 1
	// resident warp).
	SubpActiveCycles uint64

	// InstExecuted counts retired warp instructions; InstIssued includes
	// replays, so InstIssued >= InstExecuted always.
	InstExecuted uint64
	InstIssued   uint64
	// ThreadInstExecuted counts thread-level instructions (active lanes).
	ThreadInstExecuted uint64

	// WarpStateCycles[s] is warp-cycles spent in state s.
	WarpStateCycles [NumWarpStates]uint64

	// Control flow.
	BranchInstrs      uint64
	DivergentBranches uint64

	// Work geometry.
	BlocksLaunched uint64
	WarpsLaunched  uint64

	// Shared memory.
	SharedLoads         uint64
	SharedStores        uint64
	SharedBankConflicts uint64 // extra cycles from conflicts

	// Memory path: the SM's data path counts these, and Counters copies
	// them in.
	mem.DataPathStats

	// Instruction cache.
	ICacheHits   uint64
	ICacheMisses uint64

	// Register-file bank conflicts (classified under misc).
	RegBankConflicts uint64
}

// Add accumulates o into c, for aggregating per-SM counters device-wide.
func (c *Counters) Add(o *Counters) {
	c.ActiveCycles += o.ActiveCycles
	c.ElapsedCycles += o.ElapsedCycles
	c.ActiveWarpCycles += o.ActiveWarpCycles
	c.SubpActiveCycles += o.SubpActiveCycles
	c.InstExecuted += o.InstExecuted
	c.InstIssued += o.InstIssued
	c.ThreadInstExecuted += o.ThreadInstExecuted
	for i := range c.WarpStateCycles {
		c.WarpStateCycles[i] += o.WarpStateCycles[i]
	}
	c.BranchInstrs += o.BranchInstrs
	c.DivergentBranches += o.DivergentBranches
	c.BlocksLaunched += o.BlocksLaunched
	c.WarpsLaunched += o.WarpsLaunched
	c.SharedLoads += o.SharedLoads
	c.SharedStores += o.SharedStores
	c.SharedBankConflicts += o.SharedBankConflicts
	c.GlobalLoads += o.GlobalLoads
	c.GlobalStores += o.GlobalStores
	c.LoadSectors += o.LoadSectors
	c.StoreSectors += o.StoreSectors
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.ConstLoads += o.ConstLoads
	c.IMCHits += o.IMCHits
	c.IMCMisses += o.IMCMisses
	c.TexFetches += o.TexFetches
	c.Atomics += o.Atomics
	c.ICacheHits += o.ICacheHits
	c.ICacheMisses += o.ICacheMisses
	c.RegBankConflicts += o.RegBankConflicts
}

// Sub returns c - o field-by-field, for per-launch deltas of cumulative
// counters.
func (c Counters) Sub(o *Counters) Counters {
	r := c
	r.ActiveCycles -= o.ActiveCycles
	r.ElapsedCycles -= o.ElapsedCycles
	r.ActiveWarpCycles -= o.ActiveWarpCycles
	r.SubpActiveCycles -= o.SubpActiveCycles
	r.InstExecuted -= o.InstExecuted
	r.InstIssued -= o.InstIssued
	r.ThreadInstExecuted -= o.ThreadInstExecuted
	for i := range r.WarpStateCycles {
		r.WarpStateCycles[i] -= o.WarpStateCycles[i]
	}
	r.BranchInstrs -= o.BranchInstrs
	r.DivergentBranches -= o.DivergentBranches
	r.BlocksLaunched -= o.BlocksLaunched
	r.WarpsLaunched -= o.WarpsLaunched
	r.SharedLoads -= o.SharedLoads
	r.SharedStores -= o.SharedStores
	r.SharedBankConflicts -= o.SharedBankConflicts
	r.GlobalLoads -= o.GlobalLoads
	r.GlobalStores -= o.GlobalStores
	r.LoadSectors -= o.LoadSectors
	r.StoreSectors -= o.StoreSectors
	r.L1Hits -= o.L1Hits
	r.L1Misses -= o.L1Misses
	r.L2Hits -= o.L2Hits
	r.L2Misses -= o.L2Misses
	r.ConstLoads -= o.ConstLoads
	r.IMCHits -= o.IMCHits
	r.IMCMisses -= o.IMCMisses
	r.TexFetches -= o.TexFetches
	r.Atomics -= o.Atomics
	r.ICacheHits -= o.ICacheHits
	r.ICacheMisses -= o.ICacheMisses
	r.RegBankConflicts -= o.RegBankConflicts
	return r
}

// StateSum sums warp-cycles over every state, which must equal
// ActiveWarpCycles (property-tested).
func (c *Counters) StateSum() uint64 {
	var t uint64
	for _, v := range c.WarpStateCycles {
		t += v
	}
	return t
}
