package mem

import (
	"math/bits"

	"gputopdown/internal/gpu"
)

// DataPathStats counts per-SM memory-path activity, feeding the PMU's
// memory counters.
type DataPathStats struct {
	GlobalLoads  uint64 // warp-level load instructions
	GlobalStores uint64
	LoadSectors  uint64
	StoreSectors uint64
	L1Hits       uint64
	L1Misses     uint64
	L2Hits       uint64
	L2Misses     uint64
	ConstLoads   uint64
	IMCHits      uint64
	IMCMisses    uint64
	TexFetches   uint64
	Atomics      uint64
}

// DataPath is the per-SM slice of the memory hierarchy: a private L1 data
// cache and immediate-constant cache in front of the device-shared sliced
// L2/DRAM system. All methods take the SM's current cycle and return the
// completion cycle of the access.
type DataPath struct {
	spec *gpu.Spec
	L1   *Cache
	IMC  *Cache
	Mem  *MemSys // shared with every other SM
	st   DataPathStats
}

// NewDataPath builds the private caches for one SM around the shared memory
// system.
func NewDataPath(spec *gpu.Spec, ms *MemSys) *DataPath {
	return &DataPath{
		spec: spec,
		L1:   NewCache("L1D", spec.L1Size, spec.L1Ways, spec.LineSize, spec.SectorSize),
		IMC:  NewCache("IMC", spec.IMCSize, spec.IMCWays, 64, 64),
		Mem:  ms,
	}
}

// loadLines runs the sectors of a warp load (sorted, as the coalescer returns
// them) through L1→L2→DRAM a cache line at a time and returns the completion
// cycle of the slowest sector, 0 for none. L1, each L2 slice and each DRAM
// channel are independent state machines; walking by line hands each of them
// the sectors it would see one Access at a time, in the same order, so every
// hit, miss, eviction and bus slot is the per-sector walk's.
func (dp *DataPath) loadLines(now uint64, sectors []uint64) (done uint64) {
	for len(sectors) > 0 {
		var addr uint64
		var want uint32
		addr, want, sectors = dp.Mem.nextLine(sectors)
		hit := dp.L1.AccessLine(addr, want)
		if hit != 0 {
			dp.st.L1Hits += uint64(bits.OnesCount32(hit))
			done = max(done, now+uint64(dp.spec.L1Latency))
		}
		if miss := want &^ hit; miss != 0 {
			dp.st.L1Misses += uint64(bits.OnesCount32(miss))
			done = max(done, dp.sharedLine(now, addr, miss))
		}
	}
	return done
}

// sharedLine runs the sectors want of one line through the shared half of
// the hierarchy — its L2 slice, then one DRAM request per sector the slice
// missed — and returns the completion cycle of the slowest: the L2 latency
// for a hit, the channel's answer (at least the DRAM latency) for a miss.
// Loads, stores (which ignore the cycle) and atomics all pass through here.
func (dp *DataPath) sharedLine(now, addr uint64, want uint32) (done uint64) {
	slice := dp.Mem.SliceOf(addr)
	hit := dp.Mem.AccessSliceLine(slice, addr, want)
	if hit != 0 {
		dp.st.L2Hits += uint64(bits.OnesCount32(hit))
		done = now + uint64(dp.spec.L2Latency)
	}
	misses := bits.OnesCount32(want &^ hit)
	dp.st.L2Misses += uint64(misses)
	for ; misses > 0; misses-- {
		d := dp.Mem.RequestSlice(slice, now, dp.spec.SectorSize)
		done = max(done, d, now+uint64(dp.spec.DRAMLatency))
	}
	return done
}

// sharedLines is sharedLine over a sorted sector list, for the instructions
// that bypass L1.
func (dp *DataPath) sharedLines(now uint64, sectors []uint64) (done uint64) {
	for len(sectors) > 0 {
		var addr uint64
		var want uint32
		addr, want, sectors = dp.Mem.nextLine(sectors)
		done = max(done, dp.sharedLine(now, addr, want))
	}
	return done
}

// atomicAdjust applies the atomic unit's serialisation penalties on top of a
// request's cache/DRAM completion cycle: same-address RMWs serialise
// strictly, distinct addresses still share the unit's throughput.
func (dp *DataPath) atomicAdjust(done uint64, ops, maxContention int) uint64 {
	const (
		sameAddrPer = 4 // cycles per additional same-address RMW
		throughput  = 1 // cycles per additional distinct-address RMW
	)
	if maxContention > 1 {
		done += uint64((maxContention - 1) * sameAddrPer)
	}
	if extra := ops - maxContention; extra > 0 {
		done += uint64(extra * throughput)
	}
	return done
}

// GlobalLoad services a warp global-load touching the given sectors and
// returns (completion cycle, sector count). The warp's destination register
// becomes ready at the completion cycle (long-scoreboard dependency).
func (dp *DataPath) GlobalLoad(now uint64, sectors []uint64) (uint64, int) {
	dp.st.GlobalLoads++
	dp.st.LoadSectors += uint64(len(sectors))
	return max(now+uint64(dp.spec.L1Latency), dp.loadLines(now, sectors)), len(sectors)
}

// GlobalStore services a warp global-store. NVIDIA L1s are write-through /
// no-allocate: stores go straight to L2 (allocating there). Stores are
// posted — the warp is done with one once the write queue accepts it — but
// full memory-order visibility (what MEMBAR waits on) takes an L2 round
// trip. Returns (posted completion, visibility completion, sector count).
// DRAM bandwidth is still charged for L2 write misses.
func (dp *DataPath) GlobalStore(now uint64, sectors []uint64) (posted, visible uint64, n int) {
	dp.st.GlobalStores++
	dp.st.StoreSectors += uint64(len(sectors))
	posted = now + uint64(dp.spec.L1Latency) + uint64(len(sectors))
	visible = now + uint64(dp.spec.L2Latency)
	dp.sharedLines(now, sectors)
	return posted, visible, len(sectors)
}

// ConstLoad services an immediate-constant load at a bank offset and reports
// (completion cycle, hit). Misses pay the IMC refill latency — the stall ncu
// reports as stalled_imc_miss.
func (dp *DataPath) ConstLoad(now uint64, off int64) (uint64, bool) {
	dp.st.ConstLoads++
	if dp.IMC.Access(uint64(off)) {
		dp.st.IMCHits++
		return now + uint64(dp.spec.IMCHitLatency), true
	}
	dp.st.IMCMisses++
	return now + uint64(dp.spec.IMCHitLatency+dp.spec.IMCMissExtra), false
}

// TexFetch services a texture fetch through the L1TEX path.
func (dp *DataPath) TexFetch(now uint64, sectors []uint64) (uint64, int) {
	dp.st.TexFetches++
	done := now + uint64(dp.spec.TEXLatency)
	if len(sectors) > 0 {
		// The texture pipeline adds filtering latency on top of the cache
		// access; the same amount for every sector, so on top of the slowest.
		done = max(done, dp.loadLines(now, sectors)+uint64(dp.spec.TEXLatency-dp.spec.L1Latency))
	}
	return done, len(sectors)
}

// Atomic services a warp atomic touching the given sectors with `ops`
// active lane-operations, of which at most `maxContention` target the same
// address. Atomics bypass L1 and execute at the L2; same-address operations
// serialise strictly (the L2 ROP performs one RMW at a time per address)
// and distinct addresses still share the L2 atomic unit's throughput.
func (dp *DataPath) Atomic(now uint64, sectors []uint64, ops, maxContention int) (uint64, int) {
	dp.st.Atomics += uint64(ops)
	done := max(now+uint64(dp.spec.L2Latency), dp.sharedLines(now, sectors))
	return dp.atomicAdjust(done, ops, maxContention), len(sectors)
}

// Stats returns a copy of the accumulated statistics.
func (dp *DataPath) Stats() DataPathStats { return dp.st }

// Flush invalidates the SM-private caches (profiler replay hygiene).
func (dp *DataPath) Flush() {
	dp.L1.Flush()
	dp.IMC.Flush()
}

// ResetStats zeroes the statistics without touching cache contents.
func (dp *DataPath) ResetStats() { dp.st = DataPathStats{} }

// Reset returns the data path to what NewDataPath built: both caches cold,
// its statistics zero. The shared MemSys is its owner's to reset.
func (dp *DataPath) Reset() {
	dp.L1.Reset()
	dp.IMC.Reset()
	dp.ResetStats()
}
