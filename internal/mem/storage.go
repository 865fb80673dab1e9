package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Storage is flat byte-addressable device memory with a bump allocator. The
// first page is left unmapped so that address 0 can serve as a null pointer;
// out-of-bounds accesses panic, turning kernel addressing bugs into
// immediate failures instead of silent corruption.
//
// limit is the device's capacity; data is the host backing, which covers the
// allocation high-water mark (len(data) >= next always) and grows towards
// limit as Alloc advances, so a device costs what its application allocates,
// not what it could.
type Storage struct {
	data  []byte
	limit int
	next  uint64
	base  uint64
}

// storagePage is the unmapped null page; minBacking the smallest growth step.
const (
	storagePage = 4096
	minBacking  = 1 << 20
)

// NewStorage creates a device memory with a capacity of size bytes.
func NewStorage(size int) *Storage {
	return &Storage{data: make([]byte, min(size, storagePage)), limit: size, next: storagePage, base: storagePage}
}

// Alloc reserves n bytes (8-byte aligned) and returns the device address.
func (s *Storage) Alloc(n int) uint64 {
	if n < 0 {
		panic("mem: negative allocation")
	}
	addr := s.next
	s.next += uint64(n)
	s.next = (s.next + 7) &^ 7
	if s.next > uint64(s.limit) {
		panic(fmt.Sprintf("mem: device out of memory (%d of %d bytes used)", s.next, s.limit))
	}
	if s.next > uint64(len(s.data)) {
		s.grow()
	}
	return addr
}

// grow re-sizes the backing to cover the watermark: to the watermark rounded
// up to minBacking, or to twice the old backing when that is more (so a run
// of small allocations still costs amortised O(1) copies each), capped at the
// capacity. The whole old backing is carried over, released bytes included,
// so a re-allocation after Release reads what it would have read without the
// growth; new bytes are zero.
func (s *Storage) grow() {
	n := max(2*len(s.data), (int(s.next)+minBacking-1)/minBacking*minBacking)
	grown := make([]byte, min(n, s.limit))
	copy(grown, s.data)
	s.data = grown
}

// FreeAll releases every allocation (the data itself is retained).
func (s *Storage) FreeAll() { s.next = s.base }

// Reset releases every allocation and zeroes the backing, which it keeps:
// the storage then reads, allocates and hashes as NewStorage's does, without
// re-growing what a previous application already grew.
func (s *Storage) Reset() {
	clear(s.data)
	s.next = s.base
}

// Size returns the total capacity in bytes.
func (s *Storage) Size() int { return s.limit }

// Snapshot copies the allocated region of device memory, so it can be
// restored later (as CUPTI's kernel replay save/restore does between
// passes; here the replay result cache re-applies a kernel's memory effects
// with it).
func (s *Storage) Snapshot() []byte {
	snap := make([]byte, s.next-s.base)
	copy(snap, s.data[s.base:s.next])
	return snap
}

// Restore writes back a Snapshot taken at the same allocation watermark.
func (s *Storage) Restore(snap []byte) {
	if uint64(len(snap)) != s.next-s.base {
		panic(fmt.Sprintf("mem: restore of %d bytes against %d allocated", len(snap), s.next-s.base))
	}
	copy(s.data[s.base:s.next], snap)
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a parameters, used for the
// cheap content hashes the replay result cache keys on.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// hashBytes folds b into h FNV-1a style, eight bytes per step with a
// byte-wise tail. The multiply only carries differences upwards, so each
// word step also folds the high half back down; every step stays a bijection
// of h. The value is an in-process cache key: nothing persists it.
func hashBytes(h uint64, b []byte) uint64 {
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * fnv1aPrime
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * fnv1aPrime
	}
	return h
}

// HashAllocated returns a 64-bit hash of the allocation watermark and the
// allocated contents — the "memory-snapshot hash" component of the replay
// result cache key. Two storages with equal hashes hold (modulo hash
// collisions) byte-identical reachable device memory.
func (s *Storage) HashAllocated() uint64 {
	h := (fnv1aOffset ^ s.next) * fnv1aPrime
	return hashBytes(h, s.data[s.base:s.next])
}

// Mark returns the current allocation watermark, to be restored by Release —
// a scoped-arena idiom for per-launch allocations like local-memory backing.
func (s *Storage) Mark() uint64 { return s.next }

// Release rewinds the allocator to a previous Mark.
func (s *Storage) Release(mark uint64) {
	if mark < s.base || mark > s.next {
		panic(fmt.Sprintf("mem: Release(0x%x) outside [0x%x,0x%x]", mark, s.base, s.next))
	}
	s.next = mark
}

// InBounds reports whether [addr, addr+n) is a mapped device range.
func (s *Storage) InBounds(addr uint64, n int) bool {
	return addr >= s.base && addr+uint64(n) <= s.next
}

// check is the bounds rule of every device access, host-side or lane-wise:
// [addr, addr+n) must lie inside the allocated range. The panic sits in its
// own function so that check inlines into the lane loops.
func (s *Storage) check(addr uint64, n int) {
	if !s.InBounds(addr, n) {
		s.outOfBounds(addr, n)
	}
}

//go:noinline
func (s *Storage) outOfBounds(addr uint64, n int) {
	panic(fmt.Sprintf("mem: access of %d bytes at 0x%x outside allocated [0x%x,0x%x)", n, addr, s.base, s.next))
}

// Read returns size (4 or 8) bytes at addr, zero-extended to 64 bits.
func (s *Storage) Read(addr uint64, size int) uint64 {
	s.check(addr, size)
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(s.data[addr:]))
	case 8:
		return binary.LittleEndian.Uint64(s.data[addr:])
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
}

// Write stores the low size (4 or 8) bytes of v at addr.
func (s *Storage) Write(addr uint64, v uint64, size int) {
	s.check(addr, size)
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(s.data[addr:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(s.data[addr:], v)
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
}

// ReadLanes is Read for one warp instruction: dst[lane] = Read(addrs[lane],
// size) for every lane of mask, in ascending lane order, with the access
// width decided once. Each lane is bounds-checked on its own, so the first
// offending active lane panics as Read would and inactive lanes are never
// looked at.
func (s *Storage) ReadLanes(dst, addrs *[32]uint64, mask uint32, size int) {
	switch size {
	case 4:
		for ; mask != 0; mask &= mask - 1 {
			lane := bits.TrailingZeros32(mask) & 31
			s.check(addrs[lane], 4)
			dst[lane] = uint64(binary.LittleEndian.Uint32(s.data[addrs[lane]:]))
		}
	case 8:
		for ; mask != 0; mask &= mask - 1 {
			lane := bits.TrailingZeros32(mask) & 31
			s.check(addrs[lane], 8)
			dst[lane] = binary.LittleEndian.Uint64(s.data[addrs[lane]:])
		}
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
}

// WriteLanes is Write for one warp instruction, the counterpart of
// ReadLanes: lanes below the first offending one have stored when it panics.
func (s *Storage) WriteLanes(addrs, src *[32]uint64, mask uint32, size int) {
	switch size {
	case 4:
		for ; mask != 0; mask &= mask - 1 {
			lane := bits.TrailingZeros32(mask) & 31
			s.check(addrs[lane], 4)
			binary.LittleEndian.PutUint32(s.data[addrs[lane]:], uint32(src[lane]))
		}
	case 8:
		for ; mask != 0; mask &= mask - 1 {
			lane := bits.TrailingZeros32(mask) & 31
			s.check(addrs[lane], 8)
			binary.LittleEndian.PutUint64(s.data[addrs[lane]:], src[lane])
		}
	default:
		panic(fmt.Sprintf("mem: unsupported access size %d", size))
	}
}

// ReadF32 reads a float32 at addr.
func (s *Storage) ReadF32(addr uint64) float32 {
	return math.Float32frombits(uint32(s.Read(addr, 4)))
}

// WriteF32 stores a float32 at addr.
func (s *Storage) WriteF32(addr uint64, v float32) {
	s.Write(addr, uint64(math.Float32bits(v)), 4)
}

// WriteU32Slice copies a []uint32 to device memory starting at addr.
func (s *Storage) WriteU32Slice(addr uint64, vs []uint32) {
	for i, v := range vs {
		s.Write(addr+uint64(i)*4, uint64(v), 4)
	}
}

// WriteF32Slice copies a []float32 to device memory starting at addr.
func (s *Storage) WriteF32Slice(addr uint64, vs []float32) {
	for i, v := range vs {
		s.WriteF32(addr+uint64(i)*4, v)
	}
}

// ReadU32Slice copies n uint32 values from device memory at addr.
func (s *Storage) ReadU32Slice(addr uint64, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(s.Read(addr+uint64(i)*4, 4))
	}
	return out
}

// ReadF32Slice copies n float32 values from device memory at addr.
func (s *Storage) ReadF32Slice(addr uint64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = s.ReadF32(addr + uint64(i)*4)
	}
	return out
}

// ConstantBank is the device's read-only constant space: launch parameters
// live in the low region (kernel.ParamBase onward) and user __constant__
// data above kernel.ParamSpace. It is backed by plain bytes; timing is
// applied by the IMC cache in the data path.
type ConstantBank struct {
	data []byte
}

// NewConstantBank creates a constant bank of the given size.
func NewConstantBank(size int) *ConstantBank {
	return &ConstantBank{data: make([]byte, size)}
}

// Size returns the bank capacity in bytes.
func (c *ConstantBank) Size() int { return len(c.data) }

func (c *ConstantBank) check(off int64, n int) {
	if off < 0 || int(off)+n > len(c.data) {
		panic(fmt.Sprintf("mem: constant access of %d bytes at 0x%x outside bank of %d bytes", n, off, len(c.data)))
	}
}

// Read returns size (4 or 8) bytes at offset off.
func (c *ConstantBank) Read(off int64, size int) uint64 {
	c.check(off, size)
	switch size {
	case 4:
		return uint64(binary.LittleEndian.Uint32(c.data[off:]))
	case 8:
		return binary.LittleEndian.Uint64(c.data[off:])
	default:
		panic(fmt.Sprintf("mem: unsupported constant access size %d", size))
	}
}

// Write stores the low size bytes of v at offset off (host-side API).
func (c *ConstantBank) Write(off int64, v uint64, size int) {
	c.check(off, size)
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(c.data[off:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(c.data[off:], v)
	default:
		panic(fmt.Sprintf("mem: unsupported constant access size %d", size))
	}
}

// WriteF32Slice copies float32 values into the bank at offset off.
func (c *ConstantBank) WriteF32Slice(off int64, vs []float32) {
	for i, v := range vs {
		c.Write(off+int64(i)*4, uint64(math.Float32bits(v)), 4)
	}
}

// Clear zeroes the bank.
func (c *ConstantBank) Clear() {
	for i := range c.data {
		c.data[i] = 0
	}
}

// Hash returns a 64-bit hash of the bank contents, the constant-space
// component of the replay result cache key (applications may rewrite
// __constant__ data between launches, e.g. kmeans centroids).
func (c *ConstantBank) Hash() uint64 { return hashBytes(fnv1aOffset, c.data) }
