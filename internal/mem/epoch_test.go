package mem

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"gputopdown/internal/gpu"
)

// epochGeometries are the caches of both evaluation GPUs, built as the
// device builds them: an SM's L1D (the GTX 1070's has 96 sets, indexed by
// setMod), an L2 slice, the IMC and the L1I (sm.New's geometry); and caches
// at the ends of what gpu.Spec allows: 1 to 64 ways, 8 to 32 sectors to the
// line.
func epochGeometries() map[string]func() *Cache {
	out := map[string]func() *Cache{
		"1 way x 8 sets, 8 sectors":    func() *Cache { return NewCache("t", 8*1*128, 1, 128, 16) },
		"33 ways x 3 sets, 16 sectors": func() *Cache { return NewCache("t", 3*33*128, 33, 128, 8) },
		"64 ways x 4 sets, 32 sectors": func() *Cache { return NewCache("t", 4*64*128, 64, 128, 4) },
		"8 ways x 96 sets, 32 sectors": func() *Cache { return NewCache("t", 96*8*128, 8, 128, 4) },
	}
	for _, spec := range []*gpu.Spec{gpu.QuadroRTX4000(), gpu.GTX1070()} {
		out[spec.Name+"/L1D"] = func() *Cache { return NewDataPath(spec, NewMemSys(spec)).L1 }
		out[spec.Name+"/L2"] = func() *Cache { return NewMemSys(spec).Slice(0) }
		out[spec.Name+"/IMC"] = func() *Cache { return NewDataPath(spec, NewMemSys(spec)).IMC }
		out[spec.Name+"/L1I"] = func() *Cache {
			return NewCache("L1I", spec.ICacheSize, spec.ICacheWays, spec.LineSize, spec.LineSize)
		}
	}
	return out
}

// TestFlushEpochMatchesClear: a cache flushed by epoch and a twin whose
// flush zeroes its line state, as a sweep would, answer every AccessLine,
// Access and Probe of a random stream with interleaved flushes alike, and
// agree after every operation on ResidentLines and ResidentSectors.
// The set an operation touched must also hold the same lines in the same
// ways, with the same sectors and stamps: a fill takes the first invalid
// way, as it takes the first zeroed one after a sweep.
// The streams stay within a few sets and hold more lines than a set has
// ways, so lines hit, evict, and meet stale ways of their own key after a
// flush.
func TestFlushEpochMatchesClear(t *testing.T) {
	modded := 0
	for name, build := range epochGeometries() {
		rng := rand.New(rand.NewSource(int64(len(name))))
		epoch, swept := build(), build()
		if epoch.setMod != 0 {
			modded++
		}
		lineSize := uint64(1) << epoch.lineShift
		perLine := int(lineSize >> epoch.sectorShift)
		sets := []uint64{0, 1, uint64(epoch.Sets() - 1), uint64(rng.Intn(epoch.Sets()))}
		hits, evictions := 0, 0
		for step := 0; step < 6000; step++ {
			set := sets[rng.Intn(len(sets))]
			line := set + uint64(epoch.Sets())*uint64(rng.Intn(2*epoch.Ways()+1))
			addr := line*lineSize + uint64(rng.Int63n(int64(lineSize)))
			full := evicts(epoch, addr)
			var op string
			switch r := rng.Intn(40); {
			case r == 0:
				op = "Flush"
				epoch.Flush()
				clear(swept.state)
			case r < 10:
				op = fmt.Sprintf("Probe(%#x)", addr)
				if a, b := epoch.Probe(addr), swept.Probe(addr); a != b {
					t.Fatalf("%s step %d: %s = %v, swept %v", name, step, op, a, b)
				}
			case r < 20:
				op = fmt.Sprintf("Access(%#x)", addr)
				a, b := epoch.Access(addr), swept.Access(addr)
				if a != b {
					t.Fatalf("%s step %d: %s = %v, swept %v", name, step, op, a, b)
				}
				if a {
					hits++
				} else if full {
					evictions++
				}
			default:
				want := uint32(rng.Int63n(1 << perLine))
				op = fmt.Sprintf("AccessLine(%#x, %b)", addr, want)
				a, b := epoch.AccessLine(addr, want), swept.AccessLine(addr, want)
				if a != b {
					t.Fatalf("%s step %d: %s hit %b, swept %b", name, step, op, a, b)
				}
				hits += bits.OnesCount32(a)
				if full && want != 0 {
					evictions++
				}
			}
			keys, sectors, ranks := epoch.set(int(set))
			skeys, ssectors, sranks := swept.set(int(set))
			for w, k := range keys {
				if v := epoch.valid(ranks[w]); v != swept.valid(sranks[w]) ||
					v && (k != skeys[w] || sectors[w] != ssectors[w] || ranks[w] != sranks[w]) {
					t.Fatalf("%s step %d: after %s set %d way %d holds key %#x sectors %b rank %#x (valid %v), swept %#x %b %#x",
						name, step, op, set, w, k, sectors[w], ranks[w], v, skeys[w], ssectors[w], sranks[w])
				}
			}
			if a, b := epoch.ResidentLines(), swept.ResidentLines(); a != b {
				t.Fatalf("%s step %d: after %s %d resident lines, swept %d", name, step, op, a, b)
			}
			if a, b := epoch.ResidentSectors(), swept.ResidentSectors(); a != b {
				t.Fatalf("%s step %d: after %s %d resident sectors, swept %d", name, step, op, a, b)
			}
		}
		if hits == 0 || evictions == 0 {
			t.Errorf("%s: the stream hit %d sectors and evicted %d lines", name, hits, evictions)
		}
	}
	if modded == 0 {
		t.Error("no geometry indexes its sets by setMod")
	}
}

// evicts reports whether a lookup of the line containing addr would evict
// one: the line is absent and every way of its set holds a valid line.
func evicts(c *Cache, addr uint64) bool {
	key, keys, _, ranks := c.locate(addr)
	for w, k := range keys {
		if !c.valid(ranks[w]) || k == key {
			return false
		}
	}
	return true
}

// BenchmarkCacheFlush is the host cost of invalidating a whole L2 slice
// and an L1D of the RTX 4000, as the profiler does before every profiled
// launch: one epoch each, whatever the geometry.
func BenchmarkCacheFlush(b *testing.B) {
	spec := gpu.QuadroRTX4000()
	l2 := NewMemSys(spec).Slice(0)
	l1 := NewDataPath(spec, NewMemSys(spec)).L1
	for _, c := range []*Cache{l2, l1} {
		for a := uint64(0); a < uint64(c.Sets()*c.Ways())<<c.lineShift; a += 1 << c.lineShift {
			c.AccessLine(a, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2.Flush()
		l1.Flush()
		// One lookup per flush keeps the epochs apart, as launches do.
		l2.AccessLine(uint64(i)<<l2.lineShift, 1)
	}
}
