// Package mem implements the GPU memory substrate: device-memory storage,
// sectored set-associative caches (L1 data, L1 instruction, immediate-
// constant), a bandwidth/latency DRAM model with a finite request queue,
// timed instruction queues (LG/MIO/TEX), the global-memory coalescer and the
// shared-memory bank-conflict model.
//
// Everything here is deterministic: given the same access sequence, every
// structure returns the same hits, misses and completion cycles. That
// property is what makes CUPTI-style multi-pass kernel replay (internal/
// cupti) sound.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheStats counts cache activity. Hits+Misses == Lookups always holds
// (checked by property tests).
type CacheStats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

type cacheLine struct {
	tag     uint64
	valid   bool
	sectors uint32 // bitmask of valid sectors within the line
	lastUse uint64 // LRU timestamp
}

// Cache is a sectored, set-associative, LRU cache. A lookup hits only if the
// specific sector of the line is present; a miss fills that sector (and
// allocates the line if needed), modelling NVIDIA's 128-byte lines with
// 32-byte sectors.
type Cache struct {
	name       string
	sets       int
	ways       int
	lineSize   uint64
	sectorSize uint64
	// Shift/mask fast path for the (overwhelmingly common) power-of-two
	// geometry: lineShift/sectorShift replace the per-access divisions and
	// setShift/setMask the set modulo. pow2 gates the fast path.
	lineShift   uint
	sectorShift uint
	setShift    uint
	setMask     uint64
	pow2        bool
	lines       []cacheLine // sets*ways, row-major by set
	tick        uint64
	stats       CacheStats
}

func log2u64(v uint64) (uint, bool) {
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s, true
}

// NewCache builds a cache of size bytes with the given associativity and
// line/sector geometry. size must be a multiple of ways*lineSize.
func NewCache(name string, size, ways, lineSize, sectorSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 || sectorSize <= 0 {
		panic(fmt.Sprintf("mem: bad cache geometry %s size=%d ways=%d line=%d sector=%d",
			name, size, ways, lineSize, sectorSize))
	}
	if lineSize%sectorSize != 0 {
		panic(fmt.Sprintf("mem: %s line size %d not a multiple of sector size %d", name, lineSize, sectorSize))
	}
	sets := size / (ways * lineSize)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		name:       name,
		sets:       sets,
		ways:       ways,
		lineSize:   uint64(lineSize),
		sectorSize: uint64(sectorSize),
		lines:      make([]cacheLine, sets*ways),
	}
	ls, lok := log2u64(c.lineSize)
	ss, sok := log2u64(c.sectorSize)
	ts, setsOK := log2u64(uint64(sets))
	if lok && sok && setsOK {
		c.lineShift, c.sectorShift, c.setShift = ls, ss, ts
		c.setMask = uint64(sets) - 1
		c.pow2 = true
	}
	return c
}

// locate splits addr into (tag, set index, sector bit) per the cache
// geometry.
func (c *Cache) locate(addr uint64) (tag uint64, set int, sectorBit uint32) {
	if c.pow2 {
		lineAddr := addr >> c.lineShift
		return lineAddr >> c.setShift, int(lineAddr & c.setMask),
			uint32(1) << ((addr & (c.lineSize - 1)) >> c.sectorShift)
	}
	lineAddr := addr / c.lineSize
	return lineAddr / uint64(c.sets), int(lineAddr % uint64(c.sets)),
		uint32(1) << ((addr % c.lineSize) / c.sectorSize)
}

// Access looks up the sector containing addr, filling it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.tick++
	c.stats.Lookups++
	tag, set, sectorBit := c.locate(addr)

	base := set * c.ways
	var victim, lruWay int
	var lruTick uint64 = ^uint64(0)
	victim = -1
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.tick
			if ln.sectors&sectorBit != 0 {
				c.stats.Hits++
				return true
			}
			// Line present, sector absent: sector miss, fill the sector.
			ln.sectors |= sectorBit
			c.stats.Misses++
			return false
		}
		if !ln.valid {
			if victim < 0 {
				victim = w
			}
		} else if ln.lastUse < lruTick {
			lruTick = ln.lastUse
			lruWay = w
		}
	}
	c.stats.Misses++
	if victim < 0 {
		victim = lruWay
		c.stats.Evictions++
	}
	c.lines[base+victim] = cacheLine{tag: tag, valid: true, sectors: sectorBit, lastUse: c.tick}
	return false
}

// Probe reports whether the sector containing addr is present without
// modifying any state.
func (c *Cache) Probe(addr uint64) bool {
	tag, set, sectorBit := c.locate(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag && ln.sectors&sectorBit != 0 {
			return true
		}
	}
	return false
}

// Flush invalidates every line, as the profiler does before a profiled launch.
// Statistics are preserved.
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
}

// Reset flushes the cache and zeroes its statistics.
func (c *Cache) Reset() {
	c.Flush()
	c.stats = CacheStats{}
	c.tick = 0
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets and Ways expose the geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SectorSize returns the sector size in bytes.
func (c *Cache) SectorSize() uint64 { return c.sectorSize }

// ResidentLines counts the valid lines currently held. It can never exceed
// Sets()*Ways(); the invariant checker asserts that bound.
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// ResidentSectors counts the valid sectors across all resident lines. A line
// with no valid sectors cannot exist (allocation always fills one sector), so
// ResidentSectors() >= ResidentLines() whenever any line is resident.
func (c *Cache) ResidentSectors() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n += bits.OnesCount32(c.lines[i].sectors)
		}
	}
	return n
}
