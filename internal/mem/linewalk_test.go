package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gputopdown/internal/gpu"
)

// The differential tests of the line-granular memory path. Each drives the
// production routine and a twin that does the same work one sector at a
// time, with the per-sector code kept here, and compares everything the
// model can observe after every step.

// TestAccessLineMatchesSequentialAccess: AccessLine on a sector mask leaves
// the cache exactly as Access on each sector of the mask in ascending order
// does, and both agree with the map-and-LRU-list reference model, over the
// geometries gpu.Spec allows: 1 to 64 ways, 1 to 32 sectors to the line.
func TestAccessLineMatchesSequentialAccess(t *testing.T) {
	const lineSize = 128
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 64; trial++ {
		ways := 1 + rng.Intn(64)
		if trial < 2 {
			ways = []int{1, 64}[trial] // both ends of the range
		}
		sets := []int{1, 2, 8, 32, 96, 96, 3}[rng.Intn(7)]
		perLine := 1 << (trial % 6) // 1 to 32 sectors to the line
		sectorSize := lineSize / perLine
		size := sets * ways * lineSize
		name := fmt.Sprintf("trial %d (%d sets x %d ways, %d sectors/line)", trial, sets, ways, perLine)

		batched := NewCache("batched", size, ways, lineSize, sectorSize)
		stepped := NewCache("stepped", size, ways, lineSize, sectorSize)
		ref := newReferenceCache(size, ways, lineSize, sectorSize)
		if batched.Sets() != sets {
			t.Fatalf("%s: built %d sets", name, batched.Sets())
		}
		// A few lines more than the cache holds, so sets fill and evict.
		nLines := sets*ways + 1 + rng.Intn(2*sets*ways)
		var touched []uint64
		seen := map[uint64]bool{}
		for step := 0; step < 400; step++ {
			line := uint64(rng.Intn(nLines))
			if rng.Intn(8) == 0 {
				line = rng.Uint64() >> 8 // far away: tags with high bits
			}
			base := line * lineSize
			want := uint32(rng.Intn(1 << perLine)) // 0 included
			if rng.Intn(4) == 0 {
				want = 1<<perLine - 1
			}
			// Any address inside the line names it.
			got := batched.AccessLine(base+uint64(rng.Intn(lineSize)), want)
			var seq, model uint32
			for m := want; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros32(m)
				a := base + uint64(bit*sectorSize)
				if stepped.Access(a) {
					seq |= 1 << bit
				}
				if ref.access(a) {
					model |= 1 << bit
				}
				if !seen[a] {
					seen[a] = true
					touched = append(touched, a)
				}
			}
			if got != seq || got != model {
				t.Fatalf("%s step %d: AccessLine(%#x, %b) hit %b, sequential Access %b, reference %b",
					name, step, base, want, got, seq, model)
			}
			lines, sectors := ref.resident()
			if batched.ResidentLines() != lines || batched.ResidentSectors() != sectors ||
				stepped.ResidentLines() != lines || stepped.ResidentSectors() != sectors {
				t.Fatalf("%s step %d: resident %d lines / %d sectors, sequential %d / %d, reference %d / %d", name, step,
					batched.ResidentLines(), batched.ResidentSectors(), stepped.ResidentLines(), stepped.ResidentSectors(), lines, sectors)
			}
			for _, a := range touched {
				if batched.Probe(a) != stepped.Probe(a) {
					t.Fatalf("%s step %d: Probe(%#x) = %v, sequential %v", name, step, a, batched.Probe(a), stepped.Probe(a))
				}
			}
			// The clock and the stamps are not observable through the API
			// (only their order is), but "the same state" includes them.
			if batched.tick != stepped.tick {
				t.Fatalf("%s step %d: clock at %d, sequential %d", name, step, batched.tick, stepped.tick)
			}
			for set := 0; set < sets; set++ {
				keys, sectors, ranks := batched.set(set)
				skeys, ssectors, sranks := stepped.set(set)
				for w, k := range keys {
					if k != skeys[w] || ranks[w] != sranks[w] || ranks[w] != 0 && sectors[w] != ssectors[w] {
						t.Fatalf("%s step %d: set %d way %d holds key %#x sectors %b rank %#x, sequential %#x %b %#x", name, step, set, w,
							k, sectors[w], ranks[w], skeys[w], ssectors[w], sranks[w])
					}
				}
			}
		}
	}
}

// TestNewCacheWays: a cache has at most 64 ways, the most a rank's low bits
// can name. That is the upper bound of every *Ways row of gpu.ParamNames, so
// every spec that validates builds its caches.
func TestNewCacheWays(t *testing.T) {
	for _, name := range gpu.ParamNames() {
		if !strings.HasSuffix(name, "Ways") {
			continue
		}
		spec := gpu.QuadroRTX4000()
		if err := spec.Set(name, "65"); err != nil || spec.Validate() == nil {
			t.Errorf("%s = 65 validates (set: %v)", name, err)
		}
		if err := spec.Set(name, "64"); err != nil || spec.Validate() != nil {
			t.Fatalf("%s = 64 does not validate: %v / %v", name, err, spec.Validate())
		}
		dp := NewDataPath(spec, NewMemSys(spec))
		l1i := NewCache("L1I", spec.ICacheSize, spec.ICacheWays, spec.LineSize, spec.LineSize)
		for _, c := range []*Cache{dp.L1, dp.IMC, dp.Mem.Slice(0), l1i} {
			c.AccessLine(0, 1)
		}
	}
	defer func() {
		if p := recover(); !strings.Contains(fmt.Sprint(p), "bad cache geometry") {
			t.Errorf("NewCache with 65 ways panicked with %v, want the geometry message", p)
		}
	}()
	NewCache("65-way", 65*128, 65, 128, 32)
}

// refCoalesce is the coalescer by definition: every sector every active lane
// touches, sorted, duplicates dropped. A lane whose access would run past the
// end of the address space touches nothing.
func refCoalesce(addrs *[32]uint64, mask uint32, size int, sectorSize uint64) []uint64 {
	var all []uint64
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		first, last := addrs[lane]/sectorSize, (addrs[lane]+uint64(size)-1)/sectorSize
		for s := first; s <= last; s++ {
			all = append(all, s*sectorSize)
		}
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// TestCoalesceMatchesReference: CoalesceSectorsInto returns refCoalesce's
// list for lanes in order, descending, scattered, duplicated and straddling
// sector boundaries, under full and partial masks, for 4- and 8-byte lanes
// and sectors of 4 bytes (two or three to an 8-byte lane) to 64. The
// scratch slice starts small, so the list also grows in place.
func TestCoalesceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var perm []int // a lane permutation, drawn anew each round
	patterns := []struct {
		name string
		addr func(lane int) uint64
	}{
		{"unit-stride", func(i int) uint64 { return 0x1000 + uint64(i)*4 }},
		{"unit-stride-8", func(i int) uint64 { return 0x1000 + uint64(i)*8 }},
		{"misaligned", func(i int) uint64 { return 0x1004 + uint64(i)*4 }},
		{"stride-2", func(i int) uint64 { return 0x1000 + uint64(i)*8 }},
		{"stride-sector", func(i int) uint64 { return 0x1000 + uint64(i)*32 }},
		{"stride-line", func(i int) uint64 { return 0x1000 + uint64(i)*128 }},
		{"descending", func(i int) uint64 { return 0x9000 - uint64(i)*4 }},
		{"descending-line", func(i int) uint64 { return 0x9000 - uint64(i)*128 }},
		{"all-same", func(int) uint64 { return 0x2008 }},
		{"straddle", func(i int) uint64 { return 0x101c + uint64(i)*32 }}, // 8 bytes over every sector boundary
		{"straddle-same", func(int) uint64 { return 0x101c }},
		{"zigzag", func(i int) uint64 { return 0x1000 + uint64(i^1)*32 }},
		{"two-halves", func(i int) uint64 { return 0x8000>>uint(i/16) + uint64(i%16)*4 }},
		{"top-of-space", func(i int) uint64 { return ^uint64(0) - 7 - uint64(i)*8 }},      // 2^64-8 downwards
		{"past-top-of-space", func(i int) uint64 { return ^uint64(0) - 3 - uint64(i)*4 }}, // 8-byte accesses wrap
		{"random-near", func(int) uint64 { return 0x1000 + uint64(rng.Intn(512)) }},
		{"random-far", func(int) uint64 { return rng.Uint64() }},
		{"random-aligned", func(int) uint64 { return uint64(rng.Intn(1<<20)) &^ 7 }},
		// Scattered lanes: out of order, with duplicates that are not
		// neighbours, and with 8-byte accesses over sector boundaries.
		{"shuffled", func(i int) uint64 { return 0x1000 + uint64(perm[i])*4 }},
		{"shuffled-straddle", func(i int) uint64 { return 0x101c + uint64(perm[i])*32 }},
		{"scattered-dups", func(int) uint64 { return 0x4000 + uint64(rng.Intn(5))*4096 + uint64(rng.Intn(8))*4 }},
		{"scattered-straddle", func(int) uint64 { return uint64(rng.Intn(1<<14))*32 + 28 }},
		{"scattered-straddle-dups", func(int) uint64 { return 0x2000 + uint64(rng.Intn(4))*96 + 60 }},
	}
	masks := []uint32{0, 1, 0x80000000, 0x3, 0x0000FFFF, 0xAAAAAAAA, 0xFFFFFFFF, 0x80000001}
	scratch := make([]uint64, 0, 4)
	for _, p := range patterns {
		name := p.name
		for round := 0; round < 20; round++ {
			perm = rng.Perm(32)
			var addrs [32]uint64
			for i := range addrs {
				addrs[i] = p.addr(i)
			}
			for _, mask := range append(masks, rng.Uint32()) {
				for _, size := range []int{4, 8} {
					for _, sectorSize := range []uint64{4, 32, 64} {
						want := refCoalesce(&addrs, mask, size, sectorSize)
						scratch = CoalesceSectorsInto(scratch, &addrs, mask, size, sectorSize)
						if !slices.Equal(scratch, want) {
							t.Fatalf("%s mask %#x size %d sector %d:\n got %#x\nwant %#x", name, mask, size, sectorSize, scratch, want)
						}
					}
				}
			}
		}
	}
}

// perSector is the data path as it was before it walked by line: one L1
// lookup, one routed L2 lookup and one DRAM request per sector, in list
// order. It drives a DataPath's caches and channels directly and keeps the
// counters in that DataPath, so a twin run through it is comparable field by
// field.
type perSector struct{ dp *DataPath }

func (r perSector) shared(now, addr uint64) (done uint64, hit bool) {
	dp := r.dp
	slice := dp.Mem.SliceOf(addr)
	if dp.Mem.Slice(slice).Access(dp.Mem.Rebase(addr)) {
		dp.st.L2Hits++
		return now + uint64(dp.spec.L2Latency), true
	}
	dp.st.L2Misses++
	return max(dp.Mem.RequestSlice(slice, now, dp.spec.SectorSize), now+uint64(dp.spec.DRAMLatency)), false
}

func (r perSector) load(now, addr uint64) uint64 {
	if r.dp.L1.Access(addr) {
		r.dp.st.L1Hits++
		return now + uint64(r.dp.spec.L1Latency)
	}
	r.dp.st.L1Misses++
	done, _ := r.shared(now, addr)
	return done
}

func (r perSector) GlobalLoad(now uint64, sectors []uint64) (uint64, int) {
	r.dp.st.GlobalLoads++
	r.dp.st.LoadSectors += uint64(len(sectors))
	done := now + uint64(r.dp.spec.L1Latency)
	for _, s := range sectors {
		done = max(done, r.load(now, s))
	}
	return done, len(sectors)
}

func (r perSector) GlobalStore(now uint64, sectors []uint64) (posted, visible uint64, n int) {
	r.dp.st.GlobalStores++
	r.dp.st.StoreSectors += uint64(len(sectors))
	for _, s := range sectors {
		r.shared(now, s)
	}
	return now + uint64(r.dp.spec.L1Latency) + uint64(len(sectors)), now + uint64(r.dp.spec.L2Latency), len(sectors)
}

func (r perSector) TexFetch(now uint64, sectors []uint64) (uint64, int) {
	r.dp.st.TexFetches++
	done := now + uint64(r.dp.spec.TEXLatency)
	for _, s := range sectors {
		done = max(done, r.load(now, s)+uint64(r.dp.spec.TEXLatency-r.dp.spec.L1Latency))
	}
	return done, len(sectors)
}

func (r perSector) Atomic(now uint64, sectors []uint64, ops, maxContention int) (uint64, int) {
	r.dp.st.Atomics += uint64(ops)
	done := now + uint64(r.dp.spec.L2Latency)
	for _, s := range sectors {
		if d, hit := r.shared(now, s); !hit {
			done = max(done, d)
		}
	}
	return r.dp.atomicAdjust(done, ops, maxContention), len(sectors)
}

func TestDataPathLineWalkMatchesPerSector(t *testing.T) {
	for id, spec := range gpu.All() {
		// Two SMs' worth of traffic into one shared MemSys on each side, so
		// an L2 slice sees interleaved requesters as on a device.
		ms, refMS := NewMemSys(spec), NewMemSys(spec)
		dps := []*DataPath{NewDataPath(spec, ms), NewDataPath(spec, ms)}
		refs := []perSector{{NewDataPath(spec, refMS)}, {NewDataPath(spec, refMS)}}
		rng := rand.New(rand.NewSource(31))
		var now uint64
		var sectors []uint64
		for step := 0; step < 6000; step++ {
			// A small footprint re-uses lines (L1 and L2 hits, partially
			// filled lines); a large one evicts and queues on DRAM.
			span := uint64(16 << 10)
			if rng.Intn(3) == 0 {
				span = 8 << 20
			}
			base := uint64(rng.Int63n(int64(span))) &^ 3
			stride := []uint64{4, 4, 8, 32, 36, 128, 132, 4096}[rng.Intn(8)]
			var addrs [32]uint64
			for i := range addrs {
				addrs[i] = base + uint64(i)*stride
				if stride == 4096 {
					addrs[i] = uint64(rng.Int63n(int64(span))) &^ 3
				}
			}
			mask := rng.Uint32() | rng.Uint32()
			size := 4 << rng.Intn(2)
			sectors = CoalesceSectorsInto(sectors, &addrs, mask, size, uint64(spec.SectorSize))
			now += uint64(rng.Intn(40))
			sm := rng.Intn(2)
			dp, ref := dps[sm], refs[sm]
			var got, want [3]uint64
			op := []string{"load", "load", "store", "tex", "atomic"}[rng.Intn(5)]
			switch op {
			case "load":
				d, n := dp.GlobalLoad(now, sectors)
				rd, rn := ref.GlobalLoad(now, sectors)
				got, want = [3]uint64{d, uint64(n)}, [3]uint64{rd, uint64(rn)}
			case "store":
				p, v, n := dp.GlobalStore(now, sectors)
				rp, rv, rn := ref.GlobalStore(now, sectors)
				got, want = [3]uint64{p, v, uint64(n)}, [3]uint64{rp, rv, uint64(rn)}
			case "tex":
				d, n := dp.TexFetch(now, sectors)
				rd, rn := ref.TexFetch(now, sectors)
				got, want = [3]uint64{d, uint64(n)}, [3]uint64{rd, uint64(rn)}
			case "atomic":
				ops := bits.OnesCount32(mask)
				contention := MaxContention(&addrs, mask)
				d, n := dp.Atomic(now, sectors, ops, contention)
				rd, rn := ref.Atomic(now, sectors, ops, contention)
				got, want = [3]uint64{d, uint64(n)}, [3]uint64{rd, uint64(rn)}
			}
			if got != want {
				t.Fatalf("%s step %d: %s of %d sectors at cycle %d returned %v, per-sector walk %v", id, step, op, len(sectors), now, got, want)
			}
			if dp.Stats() != ref.dp.Stats() {
				t.Fatalf("%s step %d (%s): stats %+v, per-sector walk %+v", id, step, op, dp.Stats(), ref.dp.Stats())
			}
			if !sameCache(dp.L1, ref.dp.L1) {
				t.Fatalf("%s step %d (%s): L1 line state differs from the per-sector walk's", id, step, op)
			}
			for i := range ms.slices {
				if !sameCache(ms.slices[i], refMS.slices[i]) {
					t.Fatalf("%s step %d (%s): L2 slice %d line state differs from the per-sector walk's", id, step, op, i)
				}
				if a, b := ms.chans[i].bandFree, refMS.chans[i].bandFree; a != b {
					t.Fatalf("%s step %d (%s): DRAM channel %d bus free at %v, per-sector walk %v", id, step, op, i, a, b)
				}
			}
		}
		busy := false
		for _, d := range ms.chans {
			busy = busy || d.bandFree > 0
		}
		st := dps[0].Stats()
		if !busy || st.L1Hits == 0 || st.L1Misses == 0 || st.L2Hits == 0 || st.L2Misses == 0 {
			t.Errorf("%s: stream left a level unexercised (DRAM busy %v): %+v", id, busy, st)
		}
	}
}

// sameCache reports whether two caches hold the same line state: clock,
// epoch, and every way's key, rank and sector mask.
func sameCache(a, b *Cache) bool {
	return a.tick == b.tick && a.validFrom == b.validFrom && slices.Equal(a.state, b.state)
}

// The micro-benchmarks below time the two routines a warp memory instruction
// spends longest in; CI's bench-smoke runs them for 1000 iterations.

func benchCoalesce(b *testing.B, addr func(lane int) uint64) {
	var addrs [32]uint64
	for i := range addrs {
		addrs[i] = addr(i)
	}
	scratch := make([]uint64, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = CoalesceSectorsInto(scratch, &addrs, 0xFFFFFFFF, 4, 32)
	}
}

func BenchmarkCoalesceUnitStride(b *testing.B) {
	benchCoalesce(b, func(i int) uint64 { return 0x1000 + uint64(i)*4 })
}

func BenchmarkCoalesceStrided(b *testing.B) {
	benchCoalesce(b, func(i int) uint64 { return 0x1000 + uint64(i)*128 })
}

func BenchmarkCoalesceRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchCoalesce(b, func(int) uint64 { return uint64(rng.Intn(1<<20)) &^ 3 })
}

// benchCacheAccess runs four-sector line lookups over an L2 slice of the
// Quadro RTX 4000 (16 ways, 8 192 lines); addr picks the line of each of n
// lookups (n a power of two), replayed in a loop. It reports the slice's hit
// ratio, which tells which path of AccessLine the benchmark times.
func benchCacheAccess(b *testing.B, n int, addr func(i int) uint64) {
	spec := gpu.QuadroRTX4000()
	c := NewCache("L2", spec.L2Size/spec.L2Slices, spec.L2Ways, spec.LineSize, spec.SectorSize)
	lines := make([]uint64, n)
	for i := range lines {
		lines[i] = addr(i)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits += bits.OnesCount32(c.AccessLine(lines[i&(n-1)], 0xF))
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(4*b.N), "hit-ratio")
}

func BenchmarkCacheAccessStream(b *testing.B) {
	benchCacheAccess(b, 4096, func(i int) uint64 { return uint64(i) * 128 })
}

// BenchmarkCacheAccessRandom puts 4 096 random lines into the 8 192-line
// slice: after the first pass nearly every lookup hits.
func BenchmarkCacheAccessRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchCacheAccess(b, 4096, func(int) uint64 { return uint64(rng.Intn(1<<24)) &^ 127 })
}

// BenchmarkCacheAccessMiss spreads 65 536 random lines over 256 MB, eight
// times what the slice holds: nearly every lookup misses and evicts, the
// path a GUPS-like kernel's L2 spends its time on.
func BenchmarkCacheAccessMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchCacheAccess(b, 1<<16, func(int) uint64 { return uint64(rng.Intn(1<<28)) &^ 127 })
}
