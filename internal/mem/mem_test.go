package mem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache("t", 1024, 2, 128, 32)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("repeat access missed")
	}
	if !c.Access(31) {
		t.Error("same-sector access missed")
	}
	if c.Access(32) {
		t.Error("adjacent sector of same line hit before fill")
	}
	if !c.Access(32) {
		t.Error("filled sector missed")
	}
	if c.ResidentLines() != 1 || c.ResidentSectors() != 2 {
		t.Errorf("resident %d lines / %d sectors, want 1 / 2", c.ResidentLines(), c.ResidentSectors())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2 sets: lines 0 and 2 map to set 0, line 4 also set 0.
	c := NewCache("t", 512, 2, 128, 32)
	if c.Sets() != 2 || c.Ways() != 2 {
		t.Fatalf("geometry sets=%d ways=%d", c.Sets(), c.Ways())
	}
	c.Access(0)   // line 0 -> set 0
	c.Access(256) // line 2 -> set 0
	c.Access(0)   // touch line 0 so line 2 is LRU
	c.Access(512) // line 4 -> set 0, evicts line 2
	if !c.Probe(0) {
		t.Error("recently used line evicted")
	}
	if c.Probe(256) {
		t.Error("LRU line survived eviction")
	}
	if !c.Probe(512) || c.ResidentLines() != 2 {
		t.Errorf("the new line is absent or the set holds %d lines, want 2", c.ResidentLines())
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache("t", 1024, 2, 128, 32)
	c.Access(64)
	c.Flush()
	if c.Probe(64) || c.ResidentLines() != 0 {
		t.Error("flush left data behind")
	}
	if c.Access(64) {
		t.Error("a flushed sector hit")
	}
	c.Reset()
	if !reflect.DeepEqual(c, NewCache("t", 1024, 2, 128, 32)) {
		t.Error("a reset cache differs from a new one")
	}
}

// Property: for any access sequence, every miss leaves its sector resident,
// a repeat of the immediately preceding address always hits, and the cache
// never holds more sectors than missed or more lines than it has ways.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache("q", 4096, 4, 128, 32)
		misses := 0
		for i := 0; i < int(n); i++ {
			a := uint64(rng.Intn(1 << 16))
			if !c.Access(a) {
				misses++
			}
			if !c.Probe(a) || !c.Access(a) {
				return false // immediate re-access must hit
			}
		}
		return c.ResidentSectors() <= misses && c.ResidentLines() <= c.Sets()*c.Ways()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMLatencyAndBandwidth(t *testing.T) {
	d := NewDRAM(100, 2.0) // 2 bytes/cycle
	done1 := d.Request(0, 32)
	if done1 != 100 {
		t.Errorf("first request done at %d, want 100", done1)
	}
	// Second request must wait for the bus: 32B at 2B/c = 16 cycles.
	done2 := d.Request(0, 32)
	if done2 != 116 {
		t.Errorf("second request done at %d, want 116", done2)
	}
	if d.bandFree != 32 {
		t.Errorf("bus free at %v, want 32", d.bandFree)
	}
	d.Reset()
	if d.Request(5, 32) != 105 {
		t.Error("a reset channel kept its bus busy")
	}
}

func TestTimedQueue(t *testing.T) {
	q := NewTimedQueue(2)
	q.Push(10)
	q.Push(20)
	if !q.Full(5) {
		t.Error("queue not full")
	}
	if q.Full(15) {
		t.Error("queue full after first completion")
	}
	if q.Len(15) != 1 {
		t.Errorf("Len(15) = %d", q.Len(15))
	}
	q.Reset()
	if q.Len(0) != 0 {
		t.Error("reset did not empty queue")
	}
}

func TestTimedQueueOutOfOrderPush(t *testing.T) {
	q := NewTimedQueue(4)
	q.Push(30)
	q.Push(10) // violates monotonicity; must still drain correctly
	if q.Len(20) != 1 {
		t.Errorf("Len(20) = %d, want 1", q.Len(20))
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	var addrs [32]uint64
	for i := range addrs {
		addrs[i] = uint64(0x1000 + i*4)
	}
	sectors := CoalesceSectorsInto(nil, &addrs, 0xFFFFFFFF, 4, 32)
	if len(sectors) != 4 {
		t.Errorf("coalesced 32x4B -> %d sectors, want 4", len(sectors))
	}
}

func TestCoalesceBroadcast(t *testing.T) {
	var addrs [32]uint64
	for i := range addrs {
		addrs[i] = 0x2000
	}
	if got := CoalesceSectorsInto(nil, &addrs, 0xFFFFFFFF, 4, 32); len(got) != 1 {
		t.Errorf("broadcast -> %d sectors, want 1", len(got))
	}
}

func TestCoalesceStrided(t *testing.T) {
	var addrs [32]uint64
	for i := range addrs {
		addrs[i] = uint64(0x1000 + i*128) // one sector each
	}
	if got := CoalesceSectorsInto(nil, &addrs, 0xFFFFFFFF, 4, 32); len(got) != 32 {
		t.Errorf("stride-128 -> %d sectors, want 32", len(got))
	}
}

func TestCoalesceRespectsMask(t *testing.T) {
	var addrs [32]uint64
	for i := range addrs {
		addrs[i] = uint64(i * 128)
	}
	if got := CoalesceSectorsInto(nil, &addrs, 0x3, 4, 32); len(got) != 2 {
		t.Errorf("2 active lanes -> %d sectors, want 2", len(got))
	}
	if got := CoalesceSectorsInto(nil, &addrs, 0, 4, 32); len(got) != 0 {
		t.Errorf("no active lanes -> %d sectors, want 0", len(got))
	}
}

func TestCoalesceCrossSector(t *testing.T) {
	var addrs [32]uint64
	addrs[0] = 30 // 8-byte access spanning sectors 0 and 1
	if got := CoalesceSectorsInto(nil, &addrs, 1, 8, 32); len(got) != 2 {
		t.Errorf("cross-sector 8B access -> %d sectors, want 2", len(got))
	}
}

// Property: sector count is between 1 and popcount(mask)*2 for active masks,
// results are sorted and unique, and every result is sector-aligned.
func TestCoalesceProperty(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		if mask == 0 {
			mask = 1
		}
		rng := rand.New(rand.NewSource(seed))
		var addrs [32]uint64
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1 << 20))
		}
		got := CoalesceSectorsInto(nil, &addrs, mask, 4, 32)
		active := 0
		for i := 0; i < 32; i++ {
			if mask&(1<<i) != 0 {
				active++
			}
		}
		if len(got) < 1 || len(got) > active*2 {
			return false
		}
		for i, s := range got {
			if s%32 != 0 {
				return false
			}
			if i > 0 && got[i-1] >= s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankConflicts(t *testing.T) {
	var addrs [32]uint64
	// Conflict-free: consecutive words.
	for i := range addrs {
		addrs[i] = uint64(i * 4)
	}
	if d := BankConflictDegree(&addrs, 0xFFFFFFFF, 4); d != 1 {
		t.Errorf("consecutive words degree = %d, want 1", d)
	}
	// 2-way conflict: stride 2 words -> lanes 0 and 16 share bank 0.
	for i := range addrs {
		addrs[i] = uint64(i * 8)
	}
	if d := BankConflictDegree(&addrs, 0xFFFFFFFF, 4); d != 2 {
		t.Errorf("stride-2 degree = %d, want 2", d)
	}
	// Worst case: all lanes hit bank 0 with distinct words.
	for i := range addrs {
		addrs[i] = uint64(i * 4 * SharedBanks)
	}
	if d := BankConflictDegree(&addrs, 0xFFFFFFFF, 4); d != 32 {
		t.Errorf("same-bank degree = %d, want 32", d)
	}
	// Broadcast: same word everywhere.
	for i := range addrs {
		addrs[i] = 128
	}
	if d := BankConflictDegree(&addrs, 0xFFFFFFFF, 4); d != 1 {
		t.Errorf("broadcast degree = %d, want 1", d)
	}
}

func TestBankConflictDegreeBounds(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		var addrs [32]uint64
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<14)) &^ 3
		}
		d := BankConflictDegree(&addrs, mask, 4)
		if mask == 0 {
			return d == 0
		}
		return d >= 1 && d <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refBankConflictDegree and refMaxContention are the allocating
// implementations the scratch-array ones replaced, kept as references.
func refBankConflictDegree(addrs *[32]uint64, mask uint32, size int) int {
	var bankWords [SharedBanks][]uint64
	degree := 0
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		nwords := (size + 3) / 4
		for w := 0; w < nwords; w++ {
			word := addrs[lane]/4 + uint64(w)
			bank := int(word % SharedBanks)
			found := false
			for _, ex := range bankWords[bank] {
				if ex == word {
					found = true
					break
				}
			}
			if !found {
				bankWords[bank] = append(bankWords[bank], word)
				if len(bankWords[bank]) > degree {
					degree = len(bankWords[bank])
				}
			}
		}
	}
	if degree == 0 && mask != 0 {
		degree = 1
	}
	return degree
}

func refMaxContention(addrs *[32]uint64, mask uint32) int {
	counts := make(map[uint64]int, 8)
	best := 0
	for lane := 0; lane < 32; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		counts[addrs[lane]]++
		if counts[addrs[lane]] > best {
			best = counts[addrs[lane]]
		}
	}
	return best
}

// TestConflictHelpersMatchReference checks BankConflictDegree and
// MaxContention against their references on the patterns of TestBankConflicts
// and on seeded random warps whose addresses collide at every granularity
// (same address, same word, same bank).
func TestConflictHelpersMatchReference(t *testing.T) {
	check := func(name string, addrs *[32]uint64, mask uint32) {
		t.Helper()
		for _, size := range []int{4, 8} {
			if got, want := BankConflictDegree(addrs, mask, size), refBankConflictDegree(addrs, mask, size); got != want {
				t.Fatalf("%s: BankConflictDegree(%v, %#x, %d) = %d, reference %d", name, *addrs, mask, size, got, want)
			}
		}
		if got, want := MaxContention(addrs, mask), refMaxContention(addrs, mask); got != want {
			t.Fatalf("%s: MaxContention(%v, %#x) = %d, reference %d", name, *addrs, mask, got, want)
		}
	}
	patterns := map[string]func(lane int) uint64{
		"consecutive": func(i int) uint64 { return uint64(i * 4) },
		"stride-2":    func(i int) uint64 { return uint64(i * 8) },
		"same-bank":   func(i int) uint64 { return uint64(i * 4 * SharedBanks) },
		"broadcast":   func(int) uint64 { return 128 },
		"four-addrs":  func(i int) uint64 { return uint64(i % 4) },
	}
	var addrs [32]uint64
	for name, f := range patterns {
		for i := range addrs {
			addrs[i] = f(i)
		}
		for _, mask := range []uint32{0, 1, 0x80000000, 0x0000FFFF, 0xAAAAAAAA, 0xFFFFFFFF} {
			check(name, &addrs, mask)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for n := 0; n < 10000; n++ {
		// A small address space makes repeats likely; the stride picks what
		// repeats: bytes within a word, words within a bank, or banks.
		space := 1 << (1 + rng.Intn(12))
		stride := uint64(1) << rng.Intn(9)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(space)) * stride
		}
		mask := rng.Uint32()
		if n%8 == 0 {
			mask = 0xFFFFFFFF
		}
		check("random", &addrs, mask)
	}
}
func TestStorageAllocReadWrite(t *testing.T) {
	s := NewStorage(1 << 20)
	a := s.Alloc(64)
	b := s.Alloc(64)
	if a == 0 || b == a {
		t.Fatalf("alloc returned %d, %d", a, b)
	}
	if a%8 != 0 || b%8 != 0 {
		t.Error("allocations not 8-byte aligned")
	}
	s.Write(a, 0xDEADBEEF, 4)
	if got := s.Read(a, 4); got != 0xDEADBEEF {
		t.Errorf("read back %x", got)
	}
	s.Write(b, 0x1122334455667788, 8)
	if got := s.Read(b, 8); got != 0x1122334455667788 {
		t.Errorf("read back %x", got)
	}
	s.WriteF32(a+8, 3.5)
	if got := s.ReadF32(a + 8); got != 3.5 {
		t.Errorf("float read back %g", got)
	}
}

// TestStorageBoundsPanics: a host read outside the allocated range panics
// with the model's bounds message, the slice readers included — a window
// that straddles the end, and a negative count, which must not reach make.
func TestStorageBoundsPanics(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(16)
	for _, r := range []struct {
		name string
		read func()
	}{
		{"Read past the end", func() { s.Read(a+16384, 4) }},
		{"ReadU32Slice straddling the end", func() { s.ReadU32Slice(a+8, 3) }},
		{"ReadF32Slice straddling the end", func() { s.ReadF32Slice(a+8, 3) }},
		{"ReadU32Slice of -1 words", func() { s.ReadU32Slice(a, -1) }},
		{"ReadF32Slice of -1 words", func() { s.ReadF32Slice(a, -1) }},
	} {
		func() {
			defer func() {
				if p := recover(); !strings.HasPrefix(fmt.Sprint(p), "mem: access of ") {
					t.Errorf("%s panicked with %v, want the storage's bounds message", r.name, p)
				}
			}()
			r.read()
		}()
	}
}

// TestStorageBoundsDoNotWrap: addresses a kernel computed negative arrive as
// large ones, where addr+n overflows; InBounds must still refuse them, and an
// access must fail with the model's message, not a slice-bounds panic.
func TestStorageBoundsDoNotWrap(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(16)
	if a != 0x1000 || !s.InBounds(a, 16) || s.InBounds(a, 17) || s.InBounds(a+16, 1) || !s.InBounds(a+16, 0) {
		t.Fatalf("allocation at 0x%x: the bounds of [0x%x,0x%x) are wrong", a, a, a+16)
	}
	for _, addr := range []uint64{1<<64 - 2, 1 << 63, 1<<64 - 8, 1<<64 - 4} {
		if s.InBounds(addr, 4) {
			t.Errorf("InBounds(0x%x, 4) holds", addr)
		}
		func() {
			defer func() {
				want := fmt.Sprintf("mem: access of 4 bytes at 0x%x outside allocated [0x1000,0x1010)", addr)
				if r := recover(); r != want {
					t.Errorf("read at 0x%x panicked with %v, want %q", addr, r, want)
				}
			}()
			s.Read(addr, 4)
		}()
	}
}

func TestStorageNullPagePanics(t *testing.T) {
	s := NewStorage(1 << 16)
	defer func() {
		if recover() == nil {
			t.Error("null-page access did not panic")
		}
	}()
	_ = s.Read(0, 4)
}

func TestStorageSlices(t *testing.T) {
	s := NewStorage(1 << 16)
	a := s.Alloc(128)
	in := []float32{1, 2, 3, 4}
	s.WriteF32Slice(a, in)
	out := s.ReadF32Slice(a, 4)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("slice roundtrip %v != %v", in, out)
		}
	}
	u := []uint32{9, 8, 7}
	s.WriteU32Slice(a+64, u)
	got := s.ReadU32Slice(a+64, 3)
	for i := range u {
		if u[i] != got[i] {
			t.Fatalf("u32 roundtrip %v != %v", u, got)
		}
	}
}

func TestStorageReleaseRewinds(t *testing.T) {
	s := NewStorage(1 << 16)
	mark := s.Mark()
	a := s.Alloc(32)
	s.Release(mark)
	b := s.Alloc(32)
	if a != b {
		t.Errorf("Release did not rewind allocator: %d vs %d", a, b)
	}
}

func TestConstantBank(t *testing.T) {
	c := NewConstantBank(4096)
	c.Write(0x160, 42, 8)
	if got := c.Read(0x160, 8); got != 42 {
		t.Errorf("read back %d", got)
	}
	c.Write(8, 0xFFFF, 4)
	if got := c.Read(8, 4); got != 0xFFFF {
		t.Errorf("read back %x", got)
	}
	c.WriteF32Slice(256, []float32{1.5, 2.5})
	if got := c.Read(260, 4); got == 0 {
		t.Error("float slice write missing")
	}
	c.Clear()
	if c.Read(0x160, 8) != 0 {
		t.Error("clear left data")
	}
}

// TestConstantBankBoundsPanics: an access that does not lie wholly inside
// the bank panics with the model's message, including offsets where off+n
// overflows int64, as an LDC's index register plus immediate can produce.
func TestConstantBankBoundsPanics(t *testing.T) {
	const size = 1 << 16
	c := NewConstantBank(size)
	for _, r := range []struct {
		off  int64
		size int
		ok   bool
	}{
		{0, 4, true},
		{size - 8, 8, true},
		{size - 4, 4, true},
		{size, 4, false},
		{size - 2, 4, false},
		{size - 4, 8, false},
		{-8, 4, false},
		{math.MinInt64, 8, false},
		{math.MaxInt64 - 3, 4, false},
		{math.MaxInt64 - 1, 4, false},
		{math.MaxInt64 - 1, 8, false},
	} {
		func() {
			defer func() {
				p := recover()
				switch {
				case r.ok && p != nil:
					t.Errorf("Read(%d, %d) panicked: %v", r.off, r.size, p)
				case !r.ok && p == nil:
					t.Errorf("Read(%d, %d) outside a %d-byte bank did not panic", r.off, r.size, size)
				case !r.ok && !strings.Contains(fmt.Sprint(p), "outside bank"):
					t.Errorf("Read(%d, %d) panicked with %q, not the bank's bounds message", r.off, r.size, p)
				}
			}()
			_ = c.Read(r.off, r.size)
		}()
	}
}

// TestConstantBankTableIsAllOrNothing: a table that straddles the end of the
// bank panics before any of it is written, so the bank, and the replay
// cache key hashed from it, stays as it was.
func TestConstantBankTableIsAllOrNothing(t *testing.T) {
	c := NewConstantBank(4096)
	c.Write(4088, 0x1234, 8)
	h := c.Hash()
	func() {
		defer func() {
			if p := recover(); !strings.Contains(fmt.Sprint(p), "outside bank") {
				t.Errorf("a table straddling the bank's end panicked with %v, want the bank's bounds message", p)
			}
		}()
		c.WriteF32Slice(4088, []float32{1, 2, 3})
	}()
	if c.Hash() != h {
		t.Error("the failed table write changed the bank")
	}
}

// referenceCache is an obviously-correct model: a map of resident sectors
// with exact LRU order per set, against which the real sectored cache is
// checked on random access streams.
type referenceCache struct {
	sets, ways           int
	lineSize, sectorSize uint64
	// lines[set] is LRU-ordered, most recent last; each entry is a tag with
	// its resident sector set.
	lines [][]refLine
}

type refLine struct {
	tag     uint64
	sectors map[uint64]bool
}

func newReferenceCache(size, ways, lineSize, sectorSize int) *referenceCache {
	sets := size / (ways * lineSize)
	if sets < 1 {
		sets = 1
	}
	r := &referenceCache{sets: sets, ways: ways, lineSize: uint64(lineSize), sectorSize: uint64(sectorSize)}
	r.lines = make([][]refLine, sets)
	return r
}

func (r *referenceCache) access(addr uint64) bool {
	lineAddr := addr / r.lineSize
	tag := lineAddr / uint64(r.sets)
	set := int(lineAddr % uint64(r.sets))
	sector := (addr % r.lineSize) / r.sectorSize
	ls := r.lines[set]
	for i := range ls {
		if ls[i].tag == tag {
			hit := ls[i].sectors[sector]
			ls[i].sectors[sector] = true
			// Move to most-recent position.
			ln := ls[i]
			copy(ls[i:], ls[i+1:])
			ls[len(ls)-1] = ln
			return hit
		}
	}
	// Miss: allocate, evicting LRU if full.
	if len(ls) >= r.ways {
		ls = ls[1:]
	}
	ls = append(ls, refLine{tag: tag, sectors: map[uint64]bool{sector: true}})
	r.lines[set] = ls
	return false
}

// resident counts the lines and sectors the model holds.
func (r *referenceCache) resident() (lines, sectors int) {
	for _, ls := range r.lines {
		lines += len(ls)
		for _, l := range ls {
			sectors += len(l.sectors)
		}
	}
	return lines, sectors
}

func TestCacheAgainstReferenceModel(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		c := NewCache("dut", 2048, 4, 128, 32)
		ref := newReferenceCache(2048, 4, 128, 32)
		for i := 0; i < 4000; i++ {
			// A mix of hot and cold addresses exercises hits, sector fills
			// and evictions.
			var a uint64
			if rng.Intn(2) == 0 {
				a = uint64(rng.Intn(1 << 11)) // hot region
			} else {
				a = uint64(rng.Intn(1 << 18)) // cold region
			}
			got := c.Access(a)
			want := ref.access(a)
			if got != want {
				t.Fatalf("trial %d access %d (addr %#x): dut hit=%v, reference hit=%v",
					trial, i, a, got, want)
			}
		}
	}
}
