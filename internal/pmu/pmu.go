// Package pmu models the GPU's Performance Monitoring Unit: the raw hardware
// counters an SM can expose, the limited number of physical counter slots,
// and the scheduling of a counter request onto multiple kernel-replay
// passes.
//
// The key constraint the paper leans on (§II.A, §V.E) is that the PMU cannot
// observe everything at once: warp-state counters go through a small number
// of multiplexers (NumStateMuxes per subpartition, one state each per pass)
// and generic counters through GenericSlotsPerPass slots, while cycle and
// instruction counters are free-running and cost nothing. A full level-3
// Top-Down metric set therefore needs 8 passes — the replay factor behind
// the paper's ~13x profiling overhead (Fig. 13).
package pmu

import (
	"fmt"
	"sort"

	"gputopdown/internal/kernel"
	"gputopdown/internal/sm"
)

// CounterID identifies one raw PMU counter.
type CounterID uint16

// Raw counters. The first block is free-running; warp-state counters occupy
// a contiguous range starting at CtrStallBase.
const (
	CtrActiveCycles CounterID = iota
	CtrElapsedCycles
	CtrActiveWarpCycles
	CtrSubpActiveCycles
	CtrInstExecuted
	CtrInstIssued
	CtrThreadInstExecuted
	CtrBlocksLaunched
	CtrWarpsLaunched

	// CtrStallBase + s is the warp-cycle counter of sm.WarpState s.
	CtrStallBase
	ctrStallEnd = CtrStallBase + sm.NumWarpStates - 1
)

// Generic (slotted) counters continue after the warp-state range.
const (
	CtrBranchInstrs CounterID = ctrStallEnd + 1 + iota
	CtrDivergentBranches
	CtrSharedLoads
	CtrSharedStores
	CtrSharedBankConflicts
	CtrGlobalLoads
	CtrGlobalStores
	CtrLoadSectors
	CtrStoreSectors
	CtrL1Hits
	CtrL1Misses
	CtrL2Hits
	CtrL2Misses
	CtrConstLoads
	CtrIMCHits
	CtrIMCMisses
	CtrTexFetches
	CtrAtomics
	CtrICacheHits
	CtrICacheMisses
	CtrRegBankConflicts
	numCounters
)

// NumCounters is the number of defined raw counters.
const NumCounters = int(numCounters)

// PMU capacity per pass.
const (
	// GenericSlotsPerPass is how many slotted (non-state, non-free) counters
	// one pass can collect.
	GenericSlotsPerPass = 4
	// NumStateMuxes is how many warp-state multiplexers exist; each observes
	// one warp state per pass.
	NumStateMuxes = 2
)

// StallCounter returns the counter observing warp-state s.
func StallCounter(s sm.WarpState) CounterID {
	return CtrStallBase + CounterID(s)
}

// IsWarpState reports whether id is a warp-state counter and which state.
func IsWarpState(id CounterID) (sm.WarpState, bool) {
	if id >= CtrStallBase && id <= ctrStallEnd {
		return sm.WarpState(id - CtrStallBase), true
	}
	return 0, false
}

// IsFreeRunning reports whether the counter is collected without consuming a
// slot (cycle and instruction counters run continuously on real PMUs).
func IsFreeRunning(id CounterID) bool { return id < CtrStallBase }

// StateMux returns the multiplexer a warp-state counter is wired to.
func StateMux(id CounterID) int {
	s, ok := IsWarpState(id)
	if !ok {
		return -1
	}
	return int(s) % NumStateMuxes
}

// Valid reports whether id names a defined counter.
func Valid(id CounterID) bool { return id < numCounters }

// counters is the one list of raw counters: each row is a counter's
// ncu-flavoured name and the sm.Counters field it reads, so a new counter is
// one row here plus its constant above. The warp-state range has no rows; its
// names and values are computed from the state.
var counters = [numCounters]struct {
	name string
	read func(*sm.Counters) uint64
}{
	CtrActiveCycles:        {"sm__cycles_active", func(c *sm.Counters) uint64 { return c.ActiveCycles }},
	CtrElapsedCycles:       {"sm__cycles_elapsed", func(c *sm.Counters) uint64 { return c.ElapsedCycles }},
	CtrActiveWarpCycles:    {"smsp__warps_active", func(c *sm.Counters) uint64 { return c.ActiveWarpCycles }},
	CtrSubpActiveCycles:    {"smsp__cycles_active", func(c *sm.Counters) uint64 { return c.SubpActiveCycles }},
	CtrInstExecuted:        {"smsp__inst_executed", func(c *sm.Counters) uint64 { return c.InstExecuted }},
	CtrInstIssued:          {"smsp__inst_issued", func(c *sm.Counters) uint64 { return c.InstIssued }},
	CtrThreadInstExecuted:  {"smsp__thread_inst_executed", func(c *sm.Counters) uint64 { return c.ThreadInstExecuted }},
	CtrBlocksLaunched:      {"sm__ctas_launched", func(c *sm.Counters) uint64 { return c.BlocksLaunched }},
	CtrWarpsLaunched:       {"smsp__warps_launched", func(c *sm.Counters) uint64 { return c.WarpsLaunched }},
	CtrBranchInstrs:        {"smsp__inst_executed_op_branch", func(c *sm.Counters) uint64 { return c.BranchInstrs }},
	CtrDivergentBranches:   {"smsp__branch_targets_threads_divergent", func(c *sm.Counters) uint64 { return c.DivergentBranches }},
	CtrSharedLoads:         {"smsp__inst_executed_op_shared_ld", func(c *sm.Counters) uint64 { return c.SharedLoads }},
	CtrSharedStores:        {"smsp__inst_executed_op_shared_st", func(c *sm.Counters) uint64 { return c.SharedStores }},
	CtrSharedBankConflicts: {"l1tex__data_bank_conflicts_pipe_lsu_mem_shared", func(c *sm.Counters) uint64 { return c.SharedBankConflicts }},
	CtrGlobalLoads:         {"smsp__inst_executed_op_global_ld", func(c *sm.Counters) uint64 { return c.GlobalLoads }},
	CtrGlobalStores:        {"smsp__inst_executed_op_global_st", func(c *sm.Counters) uint64 { return c.GlobalStores }},
	CtrLoadSectors:         {"l1tex__t_sectors_pipe_lsu_mem_global_op_ld", func(c *sm.Counters) uint64 { return c.LoadSectors }},
	CtrStoreSectors:        {"l1tex__t_sectors_pipe_lsu_mem_global_op_st", func(c *sm.Counters) uint64 { return c.StoreSectors }},
	CtrL1Hits:              {"l1tex__t_sectors_lookup_hit", func(c *sm.Counters) uint64 { return c.L1Hits }},
	CtrL1Misses:            {"l1tex__t_sectors_lookup_miss", func(c *sm.Counters) uint64 { return c.L1Misses }},
	CtrL2Hits:              {"lts__t_sectors_lookup_hit", func(c *sm.Counters) uint64 { return c.L2Hits }},
	CtrL2Misses:            {"lts__t_sectors_lookup_miss", func(c *sm.Counters) uint64 { return c.L2Misses }},
	CtrConstLoads:          {"smsp__inst_executed_op_ldc", func(c *sm.Counters) uint64 { return c.ConstLoads }},
	CtrIMCHits:             {"idc__requests_lookup_hit", func(c *sm.Counters) uint64 { return c.IMCHits }},
	CtrIMCMisses:           {"idc__requests_lookup_miss", func(c *sm.Counters) uint64 { return c.IMCMisses }},
	CtrTexFetches:          {"smsp__inst_executed_op_texture", func(c *sm.Counters) uint64 { return c.TexFetches }},
	CtrAtomics:             {"smsp__inst_executed_op_global_atom", func(c *sm.Counters) uint64 { return c.Atomics }},
	CtrICacheHits:          {"icc__requests_lookup_hit", func(c *sm.Counters) uint64 { return c.ICacheHits }},
	CtrICacheMisses:        {"icc__requests_lookup_miss", func(c *sm.Counters) uint64 { return c.ICacheMisses }},
	CtrRegBankConflicts:    {"smsp__operand_collector_bank_conflicts", func(c *sm.Counters) uint64 { return c.RegBankConflicts }},
}

// Name returns a raw, ncu-flavoured counter name.
func Name(id CounterID) string {
	if s, ok := IsWarpState(id); ok {
		return "smsp__warps_issue_stalled_" + s.String()
	}
	if !Valid(id) {
		return fmt.Sprintf("counter_%d", uint16(id))
	}
	return counters[id].name
}

// Read extracts a counter's value from an SM counter snapshot.
func Read(c *sm.Counters, id CounterID) uint64 {
	if s, ok := IsWarpState(id); ok {
		return c.WarpStateCycles[s]
	}
	if !Valid(id) {
		panic(fmt.Sprintf("pmu: unknown counter %d", uint16(id)))
	}
	return counters[id].read(c)
}

// Schedule maps a counter request onto replay passes respecting the PMU's
// per-pass capacity. Free-running counters are attached to pass 0.
type Schedule struct {
	// Passes[i] lists the counters collected during pass i.
	Passes [][]CounterID
}

// NumPasses returns how many kernel replays the schedule needs.
func (s *Schedule) NumPasses() int { return len(s.Passes) }

// Fingerprint returns a 64-bit FNV-1a hash of the schedule's pass structure:
// which counters are collected on which pass, in order. Two sessions whose
// schedules share a fingerprint merge per-pass readings identically, which is
// what lets the replay result cache be shared across sessions — cached merged
// values are only valid under the same pass identity.
func (s *Schedule) Fingerprint() uint64 {
	h := kernel.NewFNV()
	h.Mix(uint64(len(s.Passes)))
	for _, pass := range s.Passes {
		h.Mix(uint64(len(pass)))
		for _, id := range pass {
			h.Mix(uint64(id))
		}
	}
	return uint64(h)
}

// BuildSchedule packs the requested counters into as few passes as the PMU
// capacity allows. The request is deduplicated; order does not matter.
func BuildSchedule(request []CounterID) (*Schedule, error) {
	seen := make(map[CounterID]bool, len(request))
	var free, state, generic []CounterID
	for _, id := range request {
		if !Valid(id) {
			return nil, fmt.Errorf("pmu: unknown counter id %d", uint16(id))
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		switch {
		case IsFreeRunning(id):
			free = append(free, id)
		default:
			if _, ok := IsWarpState(id); ok {
				state = append(state, id)
			} else {
				generic = append(generic, id)
			}
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	sort.Slice(state, func(i, j int) bool { return state[i] < state[j] })
	sort.Slice(generic, func(i, j int) bool { return generic[i] < generic[j] })

	// Pass count: warp-state counters are limited per-mux, generic ones by
	// slot count. At least one pass even for a free-only request.
	perMux := make([]int, NumStateMuxes)
	for _, id := range state {
		perMux[StateMux(id)]++
	}
	passes := 1
	for _, n := range perMux {
		if n > passes {
			passes = n
		}
	}
	if g := (len(generic) + GenericSlotsPerPass - 1) / GenericSlotsPerPass; g > passes {
		passes = g
	}

	sched := &Schedule{Passes: make([][]CounterID, passes)}
	sched.Passes[0] = append(sched.Passes[0], free...)
	next := make([]int, NumStateMuxes)
	for _, id := range state {
		m := StateMux(id)
		sched.Passes[next[m]] = append(sched.Passes[next[m]], id)
		next[m]++
	}
	for i, id := range generic {
		sched.Passes[i/GenericSlotsPerPass] = append(sched.Passes[i/GenericSlotsPerPass], id)
	}
	return sched, nil
}

// AllCounters returns every defined counter id, for exhaustive tests.
func AllCounters() []CounterID {
	ids := make([]CounterID, 0, NumCounters)
	for id := CounterID(0); id < numCounters; id++ {
		ids = append(ids, id)
	}
	return ids
}

// Values holds one reading per raw counter, merged across passes. It is an
// array, so a reading is a value — copying a record copies its readings —
// and a counter no pass collected reads zero.
type Values [NumCounters]uint64

// Merge records the counters of one completed pass into v.
func (v *Values) Merge(pass []CounterID, c *sm.Counters) {
	for _, id := range pass {
		v[id] = Read(c, id)
	}
}
