package mem

import "gputopdown/internal/gpu"

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
func NewDataPath(spec *gpu.Spec, smID int, ms *MemSys) *DataPath {
	return &DataPath{
		spec: spec,
		L1:   NewCache("L1D", spec.L1Size, spec.L1Ways, spec.LineSize, spec.SectorSize),
		IMC:  NewCache("IMC", spec.IMCSize, spec.IMCWays, 64, 64),
		Mem:  ms,
	}
}

// loadSector runs one 32-byte sector through L1→L2→DRAM and returns its
// completion cycle.
func (dp *DataPath) loadSector(now uint64, addr uint64) uint64 {
	if dp.L1.Access(addr) {
		dp.st.L1Hits++
		return now + uint64(dp.spec.L1Latency)
	}
	dp.st.L1Misses++
	return dp.sharedLoadSector(now, addr)
}

// sharedLoadSector runs one sector through the shared L2 slice → DRAM channel
// (the part of a load below the SM-private L1) and returns its completion
// cycle.
func (dp *DataPath) sharedLoadSector(now uint64, addr uint64) uint64 {
	slice := dp.Mem.SliceOf(addr)
	if dp.Mem.AccessSlice(slice, addr) {
		dp.st.L2Hits++
		return now + uint64(dp.spec.L2Latency)
	}
	dp.st.L2Misses++
	done := dp.Mem.RequestSlice(slice, now, int(dp.spec.SectorSize))
	base := now + uint64(dp.spec.DRAMLatency)
	if done < base {
		done = base
	}
	return done
}

// sharedStoreSector runs one store sector through the shared L2 slice,
// charging the DRAM channel on a write miss.
func (dp *DataPath) sharedStoreSector(now uint64, addr uint64) {
	slice := dp.Mem.SliceOf(addr)
	if dp.Mem.AccessSlice(slice, addr) {
		dp.st.L2Hits++
		return
	}
	dp.st.L2Misses++
	dp.Mem.RequestSlice(slice, now, int(dp.spec.SectorSize))
}

// sharedAtomicSector runs one atomic sector through the shared L2 slice and
// returns its completion cycle (0 on an L2 hit: a hit does not lengthen the
// atomic's L2-latency base).
func (dp *DataPath) sharedAtomicSector(now uint64, addr uint64) uint64 {
	slice := dp.Mem.SliceOf(addr)
	if dp.Mem.AccessSlice(slice, addr) {
		dp.st.L2Hits++
		return 0
	}
	dp.st.L2Misses++
	d := dp.Mem.RequestSlice(slice, now, int(dp.spec.SectorSize))
	if base := now + uint64(dp.spec.DRAMLatency); d < base {
		d = base
	}
	return d
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
	done := now + uint64(dp.spec.L1Latency)
	for _, s := range sectors {
		if d := dp.loadSector(now, s); d > done {
			done = d
		}
	}
	return done, len(sectors)
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
	for _, s := range sectors {
		dp.sharedStoreSector(now, s)
	}
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
	for _, s := range sectors {
		d := dp.loadSector(now, s)
		// The texture pipeline adds filtering latency on top of the cache
		// access.
		d += uint64(dp.spec.TEXLatency - dp.spec.L1Latency)
		if d > done {
			done = d
		}
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
	done := now + uint64(dp.spec.L2Latency)
	for _, s := range sectors {
		if d := dp.sharedAtomicSector(now, s); d > done {
			done = d
		}
	}
	return dp.atomicAdjust(done, ops, maxContention), len(sectors)
}

// Stats returns a copy of the accumulated statistics.
func (dp *DataPath) Stats() DataPathStats { return dp.st }

// Flush invalidates the SM-private caches (profiler replay hygiene).
func (dp *DataPath) Flush() {
	dp.L1.Flush()
	dp.IMC.Flush()
}

// FlushIMC invalidates only the immediate-constant cache, which happens on
// every kernel launch because the constant bank contents (parameters,
// __constant__ data) may have changed.
func (dp *DataPath) FlushIMC() { dp.IMC.Flush() }

// ResetStats zeroes the statistics without touching cache contents.
func (dp *DataPath) ResetStats() { dp.st = DataPathStats{} }
