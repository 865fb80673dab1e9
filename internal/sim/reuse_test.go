package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// TestLaunchSteadyStateAllocs gates the per-launch set-up cost: once a device
// has run a launch, running it again takes every block and warp context from
// the SMs' free lists, so the third launch allocates a small constant number
// of times whatever the grid size. It was one warp, three register-file
// slices, a block context and a shared-memory slab per block.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	measure := func(blocks int) float64 {
		d := NewDevice(testSpec())
		l := saxpyLaunch(d, blocks*128)
		d.MustLaunch(l)
		d.MustLaunch(l)
		return testing.AllocsPerRun(3, func() {
			if _, err := d.Launch(l); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(64), measure(512)
	if large > 16 {
		t.Errorf("a warmed 512-block launch allocates %.0f times, want <= 16", large)
	}
	if large > small {
		t.Errorf("allocations grow with the grid: %.0f at 64 blocks, %.0f at 512", small, large)
	}
}

// TestFreshDeviceIsCheap: the memory size is a limit, not a host allocation,
// so a device with 1 GiB of simulated memory that allocates 4 KiB of it costs
// (within a growth step) what a device with a 64 KiB limit costs.
func TestFreshDeviceIsCheap(t *testing.T) {
	cost := func(memBytes int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDeviceMem(tinySpec(), memBytes)
		d.Alloc(4096)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := cost(1<<16), cost(1<<30)
	if big > small+2<<20 {
		t.Errorf("a 1 GiB device with 4 KiB allocated cost %d bytes against %d for a 64 KiB one; backing must be < 2 MiB", big, small)
	}
}

// buildDirty is a kernel that leaves nothing in a block or warp context at
// its initial value: it writes every one of its registers (nregs and a few more),
// all predicates and every shared byte with non-zero values, deepens the SIMT
// stack with a divergent branch, and retires with stores and a fence pending.
func buildDirty(nregs, threads, sharedWordsPerThread int) *kernel.Program {
	b := kernel.NewBuilder(fmt.Sprintf("dirty-%d-%d", nregs, sharedWordsPerThread))
	out := b.Param(0)
	gid := b.GlobalIDX()
	tid := b.S2R(isa.SRTidX)
	b.DeclShared(4 * threads * sharedWordsPerThread)
	fill := b.MovImm(0x5EADBEEF)
	for k := 0; k < sharedWordsPerThread; k++ {
		b.Sts(b.Shl(b.IAddImm(tid, int64(k*threads)), 2), fill, 0, 4)
	}
	odd := b.ISetpImm(isa.CmpEQ, b.AndImm(gid, 1), 1)
	acc := b.MovImm(1)
	b.If(odd)
	b.MovTo(acc, b.IAddImm(acc, 2))
	b.Else()
	b.MovTo(acc, b.IAddImm(acc, 4))
	b.EndIf()
	for i := 0; i < isa.NumPreds; i++ {
		b.ISetpImm(isa.CmpGE, gid, 0) // true in every lane
	}
	for i := 0; i < nregs/2; i++ { // two fresh registers per step
		acc = b.IAdd(acc, b.MovImm(-1))
	}
	addr := b.IAdd(out, b.Shl(gid, 2))
	b.Stg(addr, acc, 0, 4)
	b.Membar()
	b.Stg(addr, fill, 0, 4)
	b.Exit()
	return b.MustBuild()
}

// buildProbe is a kernel whose output is every piece of context it did not
// initialise itself: uninit registers it never wrote, all predicates, and its
// shared memory, summed per thread into out. On a clean context that is zero.
func buildProbe(uninit, threads, sharedWordsPerThread int) *kernel.Program {
	b := kernel.NewBuilder(fmt.Sprintf("probe-%d-%d", uninit, sharedWordsPerThread))
	stale := make([]isa.Reg, uninit)
	for i := range stale {
		stale[i] = b.Reg()
	}
	out := b.Param(0)
	gid := b.GlobalIDX()
	tid := b.S2R(isa.SRTidX)
	b.DeclShared(4 * threads * sharedWordsPerThread)
	acc, one, zero := b.MovImm(0), b.MovImm(1), b.MovImm(0)
	for _, r := range stale {
		acc = b.IAdd(acc, r)
	}
	for i := 0; i < isa.NumPreds; i++ {
		acc = b.IAdd(acc, b.Sel(b.Pred(), one, zero))
	}
	for k := 0; k < sharedWordsPerThread; k++ {
		acc = b.IAdd(acc, b.Lds(b.Shl(b.IAddImm(tid, int64(k*threads)), 2), 0, 4))
	}
	b.Stg(b.IAdd(out, b.Shl(gid, 2)), acc, 0, 4)
	b.Exit()
	return b.MustBuild()
}

// TestDirtyReuseBitIdentical: a launch that runs on contexts recycled from a
// kernel which dirtied all of them must be indistinguishable — cycles, every
// counter on every SM, and device memory — from the same launch on a fresh
// device, whether it needs fewer or more registers and shared memory than its
// predecessor, and with a partial last warp.
func TestDirtyReuseBitIdentical(t *testing.T) {
	cases := []struct {
		name                    string
		dirtyRegs, dirtyShared  int // registers, shared words per thread of kernel A
		probeRegs, probeShared  int // uninitialised registers, shared words per thread of kernel B
		dirtyBlock, probeBlock  int
		dirtyBlocks, probeGrids int
	}{
		{"fewer registers and shared", 160, 8, 16, 2, 128, 128, 24, 24},
		{"more registers and shared", 24, 1, 90, 8, 128, 128, 24, 24},
		{"partial last warp", 96, 4, 40, 4, 128, 80, 24, 30},
		{"partial last warp both", 96, 4, 40, 3, 80, 80, 30, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probe := buildProbe(c.probeRegs, c.probeBlock, c.probeShared)
			run := func(dirtyFirst bool) (*RunResult, uint64, []uint32) {
				d := NewDevice(testSpec())
				n := max(c.dirtyBlock*c.dirtyBlocks, c.probeBlock*c.probeGrids)
				out := d.Alloc(n * 4)
				if dirtyFirst {
					clean := d.Storage.Snapshot()
					d.MustLaunch(&kernel.Launch{
						Program: buildDirty(c.dirtyRegs, c.dirtyBlock, c.dirtyShared),
						Grid:    kernel.Dim3{X: c.dirtyBlocks},
						Block:   kernel.Dim3{X: c.dirtyBlock},
						Params:  []uint64{out},
					})
					d.Storage.Restore(clean)
				}
				d.FlushCaches()
				r := d.MustLaunch(&kernel.Launch{
					Program: probe,
					Grid:    kernel.Dim3{X: c.probeGrids},
					Block:   kernel.Dim3{X: c.probeBlock},
					Params:  []uint64{out},
				})
				return r, d.Storage.HashAllocated(), d.Storage.ReadU32Slice(out, n)
			}
			fresh, freshHash, freshOut := run(false)
			reused, reusedHash, reusedOut := run(true)
			for i, v := range reusedOut {
				if v != 0 {
					t.Fatalf("thread %d read %#x from a recycled context, want 0", i, v)
				}
			}
			if !reflect.DeepEqual(freshOut, reusedOut) || freshHash != reusedHash {
				t.Errorf("device memory differs after the launch: hash %#x fresh, %#x reused", freshHash, reusedHash)
			}
			if fresh.Cycles != reused.Cycles || fresh.SMsUsed != reused.SMsUsed {
				t.Errorf("launch took %d cycles on %d SMs fresh, %d on %d reused", fresh.Cycles, fresh.SMsUsed, reused.Cycles, reused.SMsUsed)
			}
			if fresh.Counters != reused.Counters {
				t.Errorf("device counters differ:\nfresh  %+v\nreused %+v", fresh.Counters, reused.Counters)
			}
			if !reflect.DeepEqual(fresh.PerSM, reused.PerSM) {
				t.Error("per-SM counters differ")
			}
		})
	}
}
