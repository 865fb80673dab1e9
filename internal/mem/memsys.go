package mem

import (
	"fmt"

	"gputopdown/internal/gpu"
)

// MemSys is the device-shared half of the memory hierarchy: the L2 cache
// split into Spec.L2Slices address-interleaved slices, each backed by its own
// DRAM channel with an equal share of the device bandwidth. Consecutive
// cache lines map to consecutive slices (the interleaving real GPUs use
// across memory partitions), so streaming traffic spreads evenly.
//
// The slicing is part of the device model, not a host-side execution choice:
// hit/miss sequences and each channel's bus occupancy depend on it, and the
// golden report corpus pins them.
type MemSys struct {
	spec    *gpu.Spec
	nSlices int
	// Address routing: slice = bits of the line number just above the line
	// offset; the slice-local address drops those bits so each slice sees a
	// dense, private line space.
	lineShift   uint
	sectorShift uint
	sliceBits   uint
	sliceMask   uint64
	lineMask    uint64

	slices []*Cache
	chans  []*DRAM
}

// NewMemSys builds the sliced L2 + DRAM channels for a device spec.
func NewMemSys(spec *gpu.Spec) *MemSys {
	n := spec.L2Slices
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("mem: L2Slices = %d (want a power of two)", n))
	}
	// Spec.Validate rejects both; these assert it for hand-built specs.
	lineShift, ok := log2u64(uint64(spec.LineSize))
	if !ok {
		panic(fmt.Sprintf("mem: line size %d (want a power of two)", spec.LineSize))
	}
	sectorShift, ok := log2u64(uint64(spec.SectorSize))
	if !ok {
		panic(fmt.Sprintf("mem: sector size %d (want a power of two)", spec.SectorSize))
	}
	sliceBits, _ := log2u64(uint64(n))
	m := &MemSys{
		spec:        spec,
		nSlices:     n,
		lineShift:   lineShift,
		sectorShift: sectorShift,
		sliceBits:   sliceBits,
		sliceMask:   uint64(n) - 1,
		lineMask:    uint64(spec.LineSize) - 1,
		slices:      make([]*Cache, n),
		chans:       make([]*DRAM, n),
	}
	for i := 0; i < n; i++ {
		m.slices[i] = NewCache(fmt.Sprintf("L2[%d]", i), spec.L2Size/n, spec.L2Ways,
			spec.LineSize, spec.SectorSize)
		m.chans[i] = NewDRAM(spec.DRAMLatency, spec.DRAMBytesPerCycle/float64(n))
	}
	return m
}

// NumSlices returns the slice count.
func (m *MemSys) NumSlices() int { return m.nSlices }

// SliceOf returns the slice owning the cache line containing addr. Every
// address maps to exactly one slice, and all bytes of one line map to the
// same slice.
func (m *MemSys) SliceOf(addr uint64) int {
	return int((addr >> m.lineShift) & m.sliceMask)
}

// Rebase converts addr to its slice-local form: the slice-index bits are
// dropped from the line number so each slice addresses a dense line space
// (set indexing and tags then behave exactly like an unsliced cache of the
// slice's size). The byte offset within the line is preserved.
func (m *MemSys) Rebase(addr uint64) uint64 {
	return ((addr >> (m.lineShift + m.sliceBits)) << m.lineShift) | (addr & m.lineMask)
}

// Unrebase is the inverse of Rebase: it reconstructs the original device
// address from a slice index and a slice-local address. For every addr,
// Unrebase(SliceOf(addr), Rebase(addr)) == addr — the bijection the invariant
// checker (and FuzzSliceRouting) asserts.
func (m *MemSys) Unrebase(slice int, local uint64) uint64 {
	line := (local >> m.lineShift << m.sliceBits) | uint64(slice)
	return (line << m.lineShift) | (local & m.lineMask)
}

// nextLine splits the leading run of same-line sectors off a sorted sector
// list: the first sector's address, the run as a sector bitmask of its line,
// and the remaining list. All sectors of one line belong to one L1 set, one
// L2 slice and one DRAM channel, so a line is the unit DataPath looks up.
func (m *MemSys) nextLine(sectors []uint64) (addr uint64, want uint32, rest []uint64) {
	addr = sectors[0]
	i := 0
	for ; i < len(sectors) && sectors[i]>>m.lineShift == addr>>m.lineShift; i++ {
		want |= 1 << ((sectors[i] & m.lineMask) >> m.sectorShift)
	}
	return addr, want, sectors[i:]
}

// AccessSliceLine runs Cache.AccessLine for the sectors want of the line
// containing addr (an original, un-rebased address) on the given slice and
// returns the mask of sectors that hit. The caller must pass slice ==
// SliceOf(addr); splitting routing from access lets DataPath route a line
// once for both its L2 lookup and its DRAM requests.
func (m *MemSys) AccessSliceLine(slice int, addr uint64, want uint32) uint32 {
	return m.slices[slice].AccessLine(m.Rebase(addr), want)
}

// RequestSlice enqueues an n-byte transfer on the given slice's DRAM channel
// and returns its completion cycle.
func (m *MemSys) RequestSlice(slice int, now uint64, n int) uint64 {
	return m.chans[slice].Request(now, n)
}

// Slice exposes one L2 slice for tests.
func (m *MemSys) Slice(i int) *Cache { return m.slices[i] }

// FlushL2 invalidates every slice.
func (m *MemSys) FlushL2() {
	for _, c := range m.slices {
		c.Flush()
	}
}

// ResetDRAM frees every channel's bus.
func (m *MemSys) ResetDRAM() {
	for _, d := range m.chans {
		d.Reset()
	}
}

// Reset returns the memory system to what NewMemSys built: every slice cold,
// every channel's bus free.
func (m *MemSys) Reset() {
	for _, c := range m.slices {
		c.Reset()
	}
	m.ResetDRAM()
}
