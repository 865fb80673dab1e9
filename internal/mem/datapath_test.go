package mem

import (
	"testing"

	"gputopdown/internal/gpu"
)

func newTestPath() *DataPath {
	spec := gpu.QuadroRTX4000()
	return NewDataPath(spec, NewMemSys(spec))
}

func TestGlobalLoadHierarchy(t *testing.T) {
	dp := newTestPath()
	sectors := []uint64{0x1000, 0x1020}

	// Cold: misses everywhere, completion beyond DRAM latency.
	done, n := dp.GlobalLoad(100, sectors)
	if n != 2 {
		t.Errorf("sector count %d", n)
	}
	if done < 100+uint64(dp.spec.DRAMLatency) {
		t.Errorf("cold load done at %d, want >= %d", done, 100+dp.spec.DRAMLatency)
	}
	st := dp.Stats()
	if st.L1Misses != 2 || st.L2Misses != 2 {
		t.Errorf("cold stats %+v", st)
	}

	// Warm: L1 hits, completion at L1 latency.
	done2, _ := dp.GlobalLoad(1000, sectors)
	if done2 != 1000+uint64(dp.spec.L1Latency) {
		t.Errorf("warm load done at %d, want %d", done2, 1000+dp.spec.L1Latency)
	}
	if dp.Stats().L1Hits != 2 {
		t.Errorf("warm stats %+v", dp.Stats())
	}
}

func TestGlobalLoadL2Hit(t *testing.T) {
	dp := newTestPath()
	sectors := []uint64{0x2000}
	dp.GlobalLoad(0, sectors)
	dp.L1.Flush() // evict from L1 but keep in L2
	done, _ := dp.GlobalLoad(5000, sectors)
	if done != 5000+uint64(dp.spec.L2Latency) {
		t.Errorf("L2-hit load done at %d, want %d", done, 5000+dp.spec.L2Latency)
	}
}

func TestGlobalStoreWriteThrough(t *testing.T) {
	dp := newTestPath()
	sectors := []uint64{0x3000}
	dp.GlobalStore(0, sectors)
	if dp.L1.Probe(0x3000) {
		t.Error("store allocated in L1 (should be write-through no-allocate)")
	}
	if !dp.Mem.Slice(dp.Mem.SliceOf(0x3000)).Probe(dp.Mem.Rebase(0x3000)) {
		t.Error("store did not allocate in L2")
	}
	st := dp.Stats()
	if st.GlobalStores != 1 || st.StoreSectors != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestConstLoadIMC(t *testing.T) {
	dp := newTestPath()
	done1, hit1 := dp.ConstLoad(0, 0x160)
	if hit1 {
		t.Error("cold constant load hit")
	}
	if done1 <= uint64(dp.spec.IMCHitLatency) {
		t.Error("miss latency not applied")
	}
	done2, hit2 := dp.ConstLoad(1000, 0x160)
	if !hit2 {
		t.Error("warm constant load missed")
	}
	if done2 != 1000+uint64(dp.spec.IMCHitLatency) {
		t.Errorf("hit done at %d", done2)
	}
	st := dp.Stats()
	if st.IMCHits != 1 || st.IMCMisses != 1 || st.ConstLoads != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestAtomicSerialisation(t *testing.T) {
	dp := newTestPath()
	sectors := []uint64{0x4000}
	dp.GlobalLoad(0, sectors) // warm L2
	d1, _ := dp.Atomic(1000, sectors, 1, 1)
	d32, _ := dp.Atomic(1000, sectors, 32, 32)
	dspread, _ := dp.Atomic(1000, sectors, 32, 1)
	if d32 <= d1 {
		t.Errorf("32-way same-address contention (%d) not slower than 1 op (%d)", d32, d1)
	}
	if dspread >= d32 {
		t.Errorf("spread atomics (%d) not faster than same-address (%d)", dspread, d32)
	}
	if dp.Stats().Atomics != 65 {
		t.Errorf("stats %+v", dp.Stats())
	}
}

func TestTexFetchSlowerThanL1(t *testing.T) {
	dp := newTestPath()
	sectors := []uint64{0x5000}
	dp.GlobalLoad(0, sectors) // warm caches
	doneTex, _ := dp.TexFetch(1000, sectors)
	if doneTex < 1000+uint64(dp.spec.TEXLatency) {
		t.Errorf("tex fetch done at %d, want >= %d", doneTex, 1000+dp.spec.TEXLatency)
	}
}

func TestFlushKeepsStats(t *testing.T) {
	dp := newTestPath()
	dp.GlobalLoad(0, []uint64{0x100})
	dp.ConstLoad(0, 0)
	dp.Flush()
	if dp.L1.Probe(0x100) {
		t.Error("flush left L1 data")
	}
	if dp.Stats().GlobalLoads != 1 {
		t.Error("flush cleared stats")
	}
	dp.ResetStats()
	if dp.Stats().GlobalLoads != 0 {
		t.Error("ResetStats kept stats")
	}
}

func TestDataPathDeterminism(t *testing.T) {
	run := func() DataPathStats {
		dp := newTestPath()
		for i := 0; i < 100; i++ {
			dp.GlobalLoad(uint64(i*10), []uint64{uint64(i%7) * 32, uint64(i%13) * 4096})
			dp.ConstLoad(uint64(i*10), int64(i%5)*64)
		}
		return dp.Stats()
	}
	if run() != run() {
		t.Error("identical access sequences produced different stats")
	}
}
