// Package mem implements the GPU memory substrate: device-memory storage,
// sectored set-associative caches (L1 data, L1 instruction, immediate-
// constant), a latency-plus-bandwidth DRAM model, timed instruction queues
// (LG/MIO/TEX), the global-memory coalescer and the shared-memory
// bank-conflict model.
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

// Cache is a sectored, set-associative, LRU cache. A lookup hits only if the
// specific sector of the line is present; a miss fills that sector (and
// allocates the line if needed), modelling NVIDIA's 128-byte lines with
// 32-byte sectors.
//
// Line state is one allocation holding, set after set, three arrays of ways
// words each: keys, ranks and sector masks. A key is the line number plus
// one. A rank is the way's LRU stamp, the clock at its last fill or hit,
// shifted left by 6 with the way's index in the low bits (so a cache has at
// most 64 ways, and its clock stays below 2^58). A lookup scans the keys
// (128 bytes for a 16-way set); a miss then scans the ranks, on the next
// host cache lines, and takes the way of least rank, where an invalid way
// ranks by its index alone. Stamps are distinct and at least 1, so that is
// the first invalid way, or else the least recently used one, and the scan
// needs no branch that follows the data.
//
// Flush is an epoch, not a sweep: it raises validFrom past the clock, and a
// way is valid only while its stamp is at least validFrom (which starts at
// 1, so a way never filled, with rank 0, is not). Every fill and hit stamps
// the way with the advanced clock, so a way touched after a flush is valid
// and one untouched since is not — the state a sweep that zeroed every way
// would leave, at O(1) host cost. An invalid way's key, mask and rank are
// meaningless.
type Cache struct {
	sets int
	ways int
	// Line and sector sizes are powers of two (gpu.Spec.Validate enforces it
	// for device specs), so addresses split by shift and mask. The set index
	// is line & setMask, or line % setMod when the set count is not a power
	// of two (setMod is zero otherwise): the GTX 1070's L1D has 96 sets.
	lineShift   uint
	sectorShift uint
	lineMask    uint64
	setMask     uint64
	setMod      uint64
	state       []uint64 // per set: ways keys, ways ranks, ways sector masks
	tick        uint64
	validFrom   uint64 // the first tick of the current epoch (Flush)
}

func log2u64(v uint64) (uint, bool) {
	if v == 0 || v&(v-1) != 0 {
		return 0, false
	}
	return uint(bits.TrailingZeros64(v)), true
}

// NewCache builds a cache of size bytes with the given associativity and
// line/sector geometry. size must be a multiple of ways*lineSize; ways is at
// most 64; lineSize and sectorSize must be powers of two with at most 32
// sectors to the line.
func NewCache(name string, size, ways, lineSize, sectorSize int) *Cache {
	if size <= 0 || ways <= 0 || ways > 64 || lineSize <= 0 || sectorSize <= 0 {
		panic(fmt.Sprintf("mem: bad cache geometry %s size=%d ways=%d line=%d sector=%d",
			name, size, ways, lineSize, sectorSize))
	}
	if lineSize%sectorSize != 0 {
		panic(fmt.Sprintf("mem: %s line size %d not a multiple of sector size %d", name, lineSize, sectorSize))
	}
	lineShift, lok := log2u64(uint64(lineSize))
	sectorShift, sok := log2u64(uint64(sectorSize))
	// A one-byte line would let line number + 1 wrap to the invalid key.
	if !lok || !sok || lineSize < 2 || lineSize/sectorSize > 32 {
		panic(fmt.Sprintf("mem: %s line size %d / sector size %d (want powers of two, 2-byte lines or longer, at most 32 sectors each)",
			name, lineSize, sectorSize))
	}
	sets := size / (ways * lineSize)
	if sets < 1 {
		sets = 1
	}
	c := &Cache{
		sets:        sets,
		ways:        ways,
		lineShift:   lineShift,
		sectorShift: sectorShift,
		lineMask:    uint64(lineSize) - 1,
		setMask:     uint64(sets) - 1,
		state:       make([]uint64, 3*sets*ways),
		validFrom:   1,
	}
	if sets&(sets-1) != 0 {
		c.setMod = uint64(sets)
	}
	return c
}

// locate returns the key of the line containing addr and the state of its
// set.
func (c *Cache) locate(addr uint64) (key uint64, keys, sectors, ranks []uint64) {
	line := addr >> c.lineShift
	set := line & c.setMask
	if c.setMod != 0 {
		set = line % c.setMod
	}
	keys, sectors, ranks = c.set(int(set))
	return line + 1, keys, sectors, ranks
}

// set returns the three arrays of set i, one entry per way: keys (line
// number + 1), sector bitmasks and ranks (stamp<<6 | way, 0 = never
// filled); way w is valid when c.valid(ranks[w]).
func (c *Cache) set(i int) (keys, sectors, ranks []uint64) {
	n := c.ways
	s := c.state[3*n*i:][:3*n]
	return s[:n], s[2*n:], s[n : 2*n]
}

// valid reports whether a way of rank r holds a line of the current epoch.
func (c *Cache) valid(r uint64) bool { return r >= c.validFrom<<6 }

// sectorBit returns the bit of the sector containing addr within its line.
func (c *Cache) sectorBit(addr uint64) uint32 {
	return 1 << ((addr & c.lineMask) >> c.sectorShift)
}

// Access looks up the sector containing addr, filling it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	return c.AccessLine(addr, c.sectorBit(addr)) != 0
}

// AccessLine looks up the sectors of want (a bitmask, bit i = sector i) in
// the line containing addr, fills the ones that miss, and returns the mask
// of those that hit. It is defined as Access on each sector of want in
// ascending order and leaves exactly that state, with one scan of the set:
// n sequential lookups advance the clock by n and stamp the line with the
// last tick; if the line is absent, the first lookup allocates it (choosing
// the victim from the state before any fill) and the other n-1 are sector
// misses on the new line.
func (c *Cache) AccessLine(addr uint64, want uint32) (hit uint32) {
	n := uint64(bits.OnesCount32(want))
	if n == 0 {
		return 0
	}
	c.tick += n
	key, keys, sectors, ranks := c.locate(addr)
	ranks = ranks[:len(keys)]
	lim := c.validFrom << 6
	for w, k := range keys {
		if k == key && ranks[w] >= lim {
			hit = uint32(sectors[w]) & want
			sectors[w] |= uint64(want)
			ranks[w] = c.tick<<6 | uint64(w)
			return hit
		}
	}
	// Line absent: fill the way of least rank, an invalid way ranking by its
	// index. No branch follows the data.
	least := ^uint64(0)
	for w, r := range ranks {
		if r < lim {
			r = uint64(w)
		}
		least = min(least, r)
	}
	w := least & 63
	keys[w], sectors[w], ranks[w] = key, uint64(want), c.tick<<6|w
	return 0
}

// Probe reports whether the sector containing addr is present without
// modifying any state.
func (c *Cache) Probe(addr uint64) bool {
	key, keys, sectors, ranks := c.locate(addr)
	for w, k := range keys {
		if k == key && c.valid(ranks[w]) {
			return uint32(sectors[w])&c.sectorBit(addr) != 0
		}
	}
	return false
}

// Flush invalidates every line, as the profiler does before a profiled launch,
// by starting a new epoch: no way stamped before it is valid.
func (c *Cache) Flush() { c.validFrom = c.tick + 1 }

// Reset clears the line state and zeroes the clock: the cache is then what
// NewCache built.
func (c *Cache) Reset() {
	clear(c.state)
	c.tick, c.validFrom = 0, 1
}

// Sets and Ways expose the geometry for tests.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// ResidentLines counts the valid lines currently held. It can never exceed
// Sets()*Ways(); the invariant checker asserts that bound.
func (c *Cache) ResidentLines() int {
	n := 0
	for i := 0; i < c.sets; i++ {
		_, _, ranks := c.set(i)
		for _, r := range ranks {
			if c.valid(r) {
				n++
			}
		}
	}
	return n
}

// ResidentSectors counts the valid sectors across all resident lines. A line
// with no valid sectors cannot exist (allocation always fills one sector), so
// ResidentSectors() >= ResidentLines() whenever any line is resident.
func (c *Cache) ResidentSectors() int {
	n := 0
	for i := 0; i < c.sets; i++ {
		_, sectors, ranks := c.set(i)
		for w, r := range ranks {
			if c.valid(r) {
				n += bits.OnesCount64(sectors[w])
			}
		}
	}
	return n
}
