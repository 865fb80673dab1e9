package mem

import (
	"reflect"
	"testing"

	"gputopdown/internal/gpu"
)

// TestResetRestoresConstructorState: after traffic through every structure of
// an SM's data path and the shared memory system, Reset leaves them equal,
// field for field — cache lines, LRU clocks, DRAM queues and every statistic —
// to what NewDataPath and NewMemSys build.
func TestResetRestoresConstructorState(t *testing.T) {
	for _, spec := range []*gpu.Spec{gpu.QuadroRTX4000(), gpu.GTX1070()} {
		ms := NewMemSys(spec)
		dp := NewDataPath(spec, 0, ms)
		var sectors []uint64
		for a := uint64(0); a < 1<<16; a += 32 {
			sectors = append(sectors, a)
		}
		for now := uint64(0); now < 4; now++ {
			dp.GlobalLoad(now, sectors)
			dp.GlobalStore(now, sectors[:200])
			dp.TexFetch(now, sectors[100:300])
			dp.Atomic(now, sectors[:8], 32, 4)
			dp.ConstLoad(now, int64(now)*256)
		}
		ms.Chan(0).Full(0)
		if dp.Stats() == (DataPathStats{}) || ms.DRAMStats() == (DRAMStats{}) || ms.Slice(0).ResidentLines() == 0 {
			t.Fatalf("%s: the traffic left nothing to reset", spec.Name)
		}
		dp.Reset()
		ms.Reset()
		if want := NewDataPath(spec, 0, NewMemSys(spec)); !reflect.DeepEqual(dp, want) {
			t.Errorf("%s: a reset data path and memory system differ from new ones", spec.Name)
		}
	}
}

// TestStorageResetReadsAsNew: a reset storage keeps its grown backing but has
// no allocation, reads zero wherever it is allocated again, and hashes as a
// new storage with the same allocations does.
func TestStorageResetReadsAsNew(t *testing.T) {
	const limit = 16 << 20
	s := NewStorage(limit)
	a := s.Alloc(3 << 20)
	for off := uint64(0); off < 3<<20; off += 4 {
		s.Write(a+off, 0xDEADBEEF, 4)
	}
	backing := len(s.data)
	s.Reset()
	fresh := NewStorage(limit)
	if s.next != fresh.next || s.base != fresh.base || s.limit != fresh.limit {
		t.Fatalf("reset storage: next %#x base %#x limit %d, new: %#x %#x %d",
			s.next, s.base, s.limit, fresh.next, fresh.base, fresh.limit)
	}
	if len(s.data) != backing {
		t.Errorf("reset re-sized the backing from %d to %d bytes", backing, len(s.data))
	}
	for i, b := range s.data {
		if b != 0 {
			t.Fatalf("byte %#x of the backing is %#x after reset", i, b)
		}
	}
	if s.Alloc(4<<20) != fresh.Alloc(4<<20) || s.HashAllocated() != fresh.HashAllocated() {
		t.Error("a reset storage allocates or hashes differently from a new one")
	}
}
