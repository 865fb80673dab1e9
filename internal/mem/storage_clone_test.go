package mem

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestStorageCloneIndependence(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(64)
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})

	c := s.Clone()
	if c.Size() != s.Size() || c.Mark() != s.Mark() {
		t.Fatalf("clone shape (%d,%d) != original (%d,%d)", c.Size(), c.Mark(), s.Size(), s.Mark())
	}
	if got := c.ReadU32Slice(a, 4); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
		t.Fatalf("clone contents = %v", got)
	}
	c.WriteU32Slice(a, []uint32{9, 9, 9, 9})
	if got := s.ReadU32Slice(a, 4); !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestHashAllocatedSensitivity(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(64)
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})
	h0 := s.HashAllocated()

	if s.Clone().HashAllocated() != h0 {
		t.Fatal("clone hashes differently from its source")
	}
	s.WriteU32Slice(a, []uint32{1, 2, 3, 5})
	if s.HashAllocated() == h0 {
		t.Fatal("content change did not change the hash")
	}
	s.WriteU32Slice(a, []uint32{1, 2, 3, 4})
	if s.HashAllocated() != h0 {
		t.Fatal("hash is not a pure function of allocated bytes")
	}
	s.Alloc(8)
	if s.HashAllocated() == h0 {
		t.Fatal("watermark move did not change the hash")
	}

	// The hash folds eight bytes per step: every byte of the 1..7-byte tail
	// must count, and so must the watermark when the contents are equal
	// (all zero here, at two lengths sharing a prefix).
	c := NewConstantBank(23) // 2 words + a 7-byte tail
	hc := c.Hash()
	for off := 16; off < 23; off++ {
		c.data[off] ^= 0x80
		if c.Hash() == hc {
			t.Errorf("flipping tail byte %d of 23 did not change the hash", off)
		}
		c.data[off] ^= 0x80
	}
	for tail := 1; tail <= 7; tail++ {
		if NewConstantBank(16+tail).Hash() == NewConstantBank(16).Hash() {
			t.Errorf("a %d-byte zero tail did not change the hash", tail)
		}
	}
	z := NewStorage(1 << 16)
	z.Alloc(64)
	h64 := z.HashAllocated()
	z.Alloc(64)
	if z.HashAllocated() == h64 {
		t.Error("64 and 128 allocated zero bytes hash alike")
	}
}

// oomText recovers the panic message of an allocation that must fail.
func oomText(t *testing.T, s *Storage, n int) (msg string) {
	t.Helper()
	defer func() { msg, _ = recover().(string) }()
	s.Alloc(n)
	t.Fatalf("Alloc(%d) beyond Size() did not panic", n)
	return ""
}

// TestStorageGrowsOnDemand pins the split between capacity (Size, the
// out-of-memory limit) and the host backing, which follows the watermark.
func TestStorageGrowsOnDemand(t *testing.T) {
	t.Run("contents survive doublings", func(t *testing.T) {
		s := NewStorage(64 << 20)
		const chunk = 384 << 10
		var addrs []uint64
		for s.Mark() < 9<<20 { // crosses 1, 2, 4 and 8 MiB
			a := s.Alloc(chunk)
			if s.Read(a, 8) != 0 || s.Read(a+chunk-8, 8) != 0 {
				t.Fatalf("fresh allocation at %#x is not zero", a)
			}
			s.Write(a, a, 8)
			s.Write(a+chunk-8, ^a, 8)
			addrs = append(addrs, a)
			if n := uint64(len(s.data)); n < s.Mark() || n > max(2*s.Mark(), minBacking) {
				t.Fatalf("backing of %d bytes for a watermark of %d", n, s.Mark())
			}
		}
		for _, a := range addrs {
			if s.Read(a, 8) != a || s.Read(a+chunk-8, 8) != ^a {
				t.Fatalf("allocation at %#x lost its contents when the backing grew", a)
			}
		}
		// Released bytes are carried over too: a re-allocation after Release
		// reads what it would have read had the backing never grown.
		mark := s.Mark()
		a := s.Alloc(64)
		s.Write(a, 0xfeed, 8)
		s.Release(mark)
		before := len(s.data)
		s.Alloc(16 << 20)
		if len(s.data) == before {
			t.Fatal("a 16 MiB allocation did not grow the backing")
		}
		if got := s.Read(a, 8); got != 0xfeed {
			t.Errorf("released bytes read %#x after growth, want 0xfeed", got)
		}
		if s.Size() != 64<<20 {
			t.Errorf("Size() = %d after growth, want the capacity", s.Size())
		}
	})

	// The backing follows the watermark in minBacking steps and at least
	// doubles when it grows: one large allocation is not rounded up to a
	// power of two, and a run of small ones is not copied once per step.
	t.Run("backing sizes", func(t *testing.T) {
		const mib = 1 << 20
		repeat := func(n int, sizes ...int) (out []int) {
			for ; n > 0; n-- {
				out = append(out, sizes...)
			}
			return out
		}
		for _, c := range []struct {
			name   string
			limit  int
			allocs []int
			steps  []int // the backing after each growth
		}{
			{"one 8 MiB + 4 KiB table", 1 << 30, []int{8*mib + 4096}, []int{9 * mib}},
			{"64 x 256 KiB", 1 << 30, repeat(64, 256<<10), []int{mib, 2 * mib, 4 * mib, 8 * mib, 16 * mib, 32 * mib}},
			{"alternating 64 B / 3 MiB", 1 << 30, repeat(4, 64, 3*mib), []int{mib, 4 * mib, 8 * mib, 16 * mib}},
			{"capped at the capacity", 5*mib + 4096, []int{2 * mib, 2 * mib, 64}, []int{3 * mib, 5*mib + 4096}},
		} {
			s := NewStorage(c.limit)
			var steps []int
			for _, n := range c.allocs {
				before := len(s.data)
				s.Alloc(n)
				if len(s.data) != before {
					steps = append(steps, len(s.data))
				}
				if uint64(len(s.data)) < s.Mark() {
					t.Fatalf("%s: backing of %d bytes below the watermark %d", c.name, len(s.data), s.Mark())
				}
			}
			if !slices.Equal(steps, c.steps) {
				t.Errorf("%s: backing grew %v, want %v", c.name, steps, c.steps)
			}
			if s.Size() != c.limit {
				t.Errorf("%s: Size() = %d, want %d", c.name, s.Size(), c.limit)
			}
		}
	})

	t.Run("out of memory at Size", func(t *testing.T) {
		for _, size := range []int{1 << 16, 3<<20 + 4096} { // below one growth step; not a power of two
			s := NewStorage(size)
			s.Alloc(size - storagePage - 8)
			s.Alloc(8) // exactly full
			if s.Mark() != uint64(size) || len(s.data) != size {
				t.Fatalf("full storage: watermark %d, backing %d, want %d", s.Mark(), len(s.data), size)
			}
			want := fmt.Sprintf("mem: device out of memory (%d of %d bytes used)", size+8, size)
			if got := oomText(t, s, 1); got != want {
				t.Errorf("panic %q, want %q", got, want)
			}
		}
		if got, want := oomText(t, NewStorage(1<<30), 1<<30), "mem: device out of memory (1073745920 of 1073741824 bytes used)"; got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	})

	// A request that does not fit panics without moving the watermark, so
	// the storage snapshots, hashes and allocates afterwards as before it.
	t.Run("out of memory keeps the mark", func(t *testing.T) {
		s := NewStorage(1 << 20)
		a := s.Alloc(4096)
		s.Write(a, 0xC0DE, 8)
		mark, hash := s.Mark(), s.HashAllocated()
		for _, n := range []int{1 << 20, 1<<20 - storagePage - 4096 + 1, math.MaxInt} {
			oomText(t, s, n)
			if s.Mark() != mark {
				t.Fatalf("Alloc(%d) past the capacity moved the mark from %#x to %#x", n, mark, s.Mark())
			}
		}
		if len(s.Snapshot()) != 4096 || s.HashAllocated() != hash {
			t.Error("the storage reads differently after a failed allocation")
		}
		if b := s.Alloc(8); b != mark {
			t.Errorf("the next allocation landed at %#x, want the old mark %#x", b, mark)
		}
	})

	t.Run("never allocated", func(t *testing.T) {
		s := NewStorage(1 << 30)
		if len(s.data) != storagePage {
			t.Errorf("a fresh storage holds %d bytes of backing, want the null page", len(s.data))
		}
		snap := s.Snapshot()
		if len(snap) != 0 {
			t.Errorf("snapshot of %d bytes", len(snap))
		}
		s.Restore(snap)
		c := s.Clone()
		if c.Size() != s.Size() || c.Mark() != s.Mark() || c.HashAllocated() != s.HashAllocated() {
			t.Error("clone of an empty storage differs from it")
		}
		if a, b := s.Alloc(16), c.Alloc(16); a != b || a != storagePage {
			t.Errorf("first allocations at %#x and %#x, want %#x", a, b, storagePage)
		}
	})

	t.Run("release and re-allocate", func(t *testing.T) {
		s := NewStorage(64 << 20)
		s.Alloc(64)
		mark := s.Mark()
		a := s.Alloc(2 << 20)
		s.Write(a+(2<<20)-8, 0xFEED, 8)
		backing := len(s.data)
		s.Release(mark)
		if len(s.data) != backing {
			t.Error("Release shrank the backing")
		}
		// A released range keeps its bytes until something overwrites them,
		// whether or not the next allocation has to grow the backing.
		if b := s.Alloc(12 << 20); b != a {
			t.Fatalf("re-allocation at %#x, want %#x", b, a)
		}
		if got := s.Read(a+(2<<20)-8, 8); got != 0xFEED {
			t.Errorf("released bytes read %#x after growth, want them kept", got)
		}
		s.Release(storagePage)
		if s.Mark() != storagePage || len(s.data) < 12<<20 {
			t.Error("releasing every allocation did not keep the backing")
		}
	})
}

func TestConstantBankCloneAndHash(t *testing.T) {
	b := NewConstantBank(1 << 12)
	b.Write(0x200, 0xABCD, 8)
	h0 := b.Hash()

	c := b.Clone()
	if c.Hash() != h0 {
		t.Fatal("constant clone hashes differently")
	}
	c.Write(0x200, 0x1234, 8)
	if b.Read(0x200, 8) != 0xABCD {
		t.Fatal("mutating constant clone changed the original")
	}
	if c.Hash() == h0 {
		t.Fatal("constant rewrite did not change the hash")
	}
}
