package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// failure_test exercises the guard rails: kernels that would hang, corrupt
// memory or overcommit resources must fail loudly, not silently.

// tinySpec keeps the non-termination guard test fast.
func tinySpec() *gpu.Spec { return gpu.QuadroRTX4000().WithSMs(1) }

func TestBarrierDeadlockIsCaught(t *testing.T) {
	// A barrier that only half the block's live threads can reach on a
	// divergent path where the other warps spin: the classic __syncthreads
	// divergence bug. The launch guard must abort instead of hanging.
	b := kernel.NewBuilder("deadlock")
	tid := b.S2R(isa.SRTidX)
	p := b.ISetpImm(isa.CmpLT, tid, 32)
	b.If(p)
	b.Bar() // only warp 0 arrives; warp 1 never does
	b.EndIf()
	// Warp 1 spins forever waiting for data warp 0 would produce after the
	// barrier.
	spin := b.For(0, b.MovImm(1<<40), 1)
	_ = spin
	b.EndFor()
	b.Exit()
	d := NewDevice(tinySpec())
	_, err := d.Launch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 64},
	})
	if err == nil {
		t.Fatal("deadlocked kernel completed")
	}
	if !strings.Contains(err.Error(), "cycles") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestOutOfBoundsAccessPanics(t *testing.T) {
	b := kernel.NewBuilder("oob")
	gid := b.GlobalIDX()
	// Address far beyond any allocation.
	addr := b.IMad(gid, b.MovImm(4), b.MovImm(1<<30))
	b.Ldg(addr, 0, 4)
	b.Exit()
	d := NewDevice(tinySpec())
	defer func() {
		if recover() == nil {
			t.Error("wild load did not panic")
		}
	}()
	d.MustLaunch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
}

// TestHugeConstantOffsetPanics: an LDC whose index register plus immediate
// lands near the top of int64 — where offset plus width overflows — fails
// with the constant bank's bounds message, not a host slice fault.
func TestHugeConstantOffsetPanics(t *testing.T) {
	b := kernel.NewBuilder("ldc_huge")
	b.Ldc(b.MovImm(2), math.MaxInt64-3, 4) // offset MaxInt64-1
	b.Exit()
	d := NewDevice(tinySpec())
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("an LDC at offset MaxInt64-1 did not panic")
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, "mem: constant access") || !strings.Contains(msg, "outside bank") {
			t.Errorf("panic %q is not the constant bank's bounds message", msg)
		}
	}()
	d.MustLaunch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
}

// wildLanes builds a one-warp kernel whose lanes below firstBad address their
// word of the buffer in parameter 0 and whose other lanes address
// wildBase + 4*lane, far beyond any allocation. access emits the memory
// instruction under test given the address register, the lane id and the
// predicate "lane is below firstBad".
const (
	wildBase = 1 << 30
	firstBad = 5
)

func wildLanes(name string, access func(b *kernel.Builder, addr, lane isa.Reg, good isa.PredReg)) *kernel.Program {
	b := kernel.NewBuilder(name)
	lane := b.S2R(isa.SRTidX)
	good := b.ISetpImm(isa.CmpLT, lane, firstBad)
	off := b.Shl(lane, 2)
	addr := b.Sel(good, b.IAdd(b.Param(0), off), b.IAddImm(off, wildBase))
	access(b, addr, lane, good)
	b.Exit()
	return b.MustBuild()
}

// launchWildLanes runs the kernel on one warp over a zeroed 32-word buffer
// and returns the buffer afterwards and what the launch panicked with.
func launchWildLanes(p *kernel.Program) (buf []uint32, panicked any) {
	d := NewDevice(tinySpec())
	out := d.Alloc(32 * 4)
	defer func() {
		panicked = recover()
		buf = d.Storage.ReadU32Slice(out, 32)
	}()
	d.MustLaunch(&kernel.Launch{Program: p, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}, Params: []uint64{out}})
	return
}

// TestOutOfBoundsNamesFirstOffendingLane pins what the lane-batched storage
// access keeps of the per-lane one: lanes are checked one by one in lane
// order, so the panic names the first offending active lane's address, and a
// store has landed for every lane below it and for none above.
func TestOutOfBoundsNamesFirstOffendingLane(t *testing.T) {
	want := fmt.Sprintf("mem: access of 4 bytes at 0x%x outside allocated", wildBase+4*firstBad)
	for _, c := range []struct {
		name   string
		access func(b *kernel.Builder, addr, lane isa.Reg, good isa.PredReg)
		stored int // lanes whose word of the buffer must hold lane+100
	}{
		{"ldg", func(b *kernel.Builder, addr, _ isa.Reg, _ isa.PredReg) { b.Ldg(addr, 0, 4) }, 0},
		{"stg", func(b *kernel.Builder, addr, lane isa.Reg, _ isa.PredReg) { b.Stg(addr, b.IAddImm(lane, 100), 0, 4) }, firstBad},
	} {
		buf, panicked := launchWildLanes(wildLanes(c.name, c.access))
		if msg, _ := panicked.(string); !strings.HasPrefix(msg, want) {
			t.Errorf("%s: panicked with %v, want %q...", c.name, panicked, want)
		}
		for lane, v := range buf {
			if exp := uint32(lane + 100); lane < c.stored && v != exp || lane >= c.stored && v != 0 {
				t.Errorf("%s: word %d of the buffer holds %d after the panic", c.name, lane, v)
			}
		}
	}
}

// TestInactiveWildLaneIsNeverChecked: the same wild addresses in lanes the
// instruction's guard predicate switches off are not formed into accesses at
// all — the launch completes, and only the active lanes load and store.
func TestInactiveWildLaneIsNeverChecked(t *testing.T) {
	p := wildLanes("guarded", func(b *kernel.Builder, addr, lane isa.Reg, good isa.PredReg) {
		b.StgIf(good, false, addr, b.IAddImm(lane, 100), 0, 4)
		v := b.Reg()
		b.Emit(isa.Instr{Op: isa.OpLDG, Dst: v, Srcs: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Size: 4, Pred: good})
		b.StgIf(good, false, addr, b.IAddImm(v, 100), 0, 4)
	})
	buf, panicked := launchWildLanes(p)
	if panicked != nil {
		t.Fatalf("guarded wild lanes panicked: %v", panicked)
	}
	for lane, v := range buf {
		if exp := uint32(lane + 200); lane < firstBad && v != exp || lane >= firstBad && v != 0 {
			t.Errorf("word %d of the buffer holds %d", lane, v)
		}
	}
}

// TestNegativeAddressFailsInTheModel: a kernel whose load address goes
// negative hands the memory model a huge one, which must not wrap round the
// bounds check: the launch fails with the model's own message for global and
// shared memory alike, not with a slice-bounds panic of the host.
func TestNegativeAddressFailsInTheModel(t *testing.T) {
	for _, c := range []struct {
		op   string
		off  int64
		want string
	}{
		{"ldg", -2, "mem: access of 4 bytes at 0xfffffffffffffffe outside allocated"},
		{"ldg", -8, "mem: access of 4 bytes at 0xfffffffffffffff8 outside allocated"},
		{"lds", -2, "sm: shared read of 4 bytes at 0xfffffffffffffffe outside 64-byte block allocation (kernel lds)"},
		{"lds", -8, "sm: shared read of 4 bytes at 0xfffffffffffffff8 outside 64-byte block allocation (kernel lds)"},
	} {
		b := kernel.NewBuilder(c.op)
		b.DeclShared(64)
		if c.op == "ldg" {
			b.Ldg(b.MovImm(0), c.off, 4)
		} else {
			b.Lds(b.MovImm(0), c.off, 4)
		}
		b.Exit()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, c.want) {
					t.Errorf("%s at %d: panicked with %q, want %q...", c.op, c.off, msg, c.want)
				}
			}()
			d := NewDevice(tinySpec())
			d.MustLaunch(&kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}})
		}()
	}
}

func TestSharedOverflowPanics(t *testing.T) {
	b := kernel.NewBuilder("shoob")
	b.DeclShared(64)
	tid := b.S2R(isa.SRTidX)
	// tid*16 exceeds the 64-byte allocation for tid >= 4.
	addr := b.IMad(tid, b.MovImm(16), b.MovImm(0))
	b.Sts(addr, tid, 0, 4)
	b.Exit()
	d := NewDevice(tinySpec())
	defer func() {
		if recover() == nil {
			t.Error("shared overflow did not panic")
		}
	}()
	d.MustLaunch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
}

func TestOversizedBlockRejected(t *testing.T) {
	b := kernel.NewBuilder("huge")
	b.Exit()
	d := NewDevice(tinySpec())
	if _, err := d.Launch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 2048},
	}); err == nil {
		t.Error("2048-thread block accepted")
	}
}

func TestUndispatchableBlockRejected(t *testing.T) {
	// A block needing more shared memory than the SM has can never become
	// resident; the dispatcher must report it instead of spinning.
	spec := tinySpec()
	b := kernel.NewBuilder("sharedhuge")
	b.DeclShared(spec.SharedMemPerSM + 4096)
	b.Exit()
	d := NewDevice(spec)
	_, err := d.Launch(&kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
	if err == nil {
		t.Fatal("undispatchable block accepted")
	}
	if !strings.Contains(err.Error(), "wedged") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDeviceMemoryExhaustionPanics(t *testing.T) {
	d := NewDeviceMem(tinySpec(), 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("exhausted allocator did not panic")
		}
	}()
	d.Alloc(1 << 20)
}

func TestSchedulerPoliciesBothWorkAndDiffer(t *testing.T) {
	run := func(policy string) (uint64, uint64) {
		spec := gpu.QuadroRTX4000().WithSMs(1)
		spec.SchedulingPolicy = policy
		d := NewDevice(spec)
		const n = 4096
		in := d.Alloc(n * 4)
		out := d.Alloc(n * 4)
		d.Storage.WriteF32Slice(in, make([]float32, n))
		b := kernel.NewBuilder("sched")
		inp := b.Param(0)
		outp := b.Param(1)
		gid := b.GlobalIDX()
		off := b.Shl(gid, 2)
		v := b.Ldg(b.IAdd(inp, off), 0, 4)
		acc := b.Mov(v)
		for i := 0; i < 8; i++ {
			b.MovTo(acc, b.FFma(acc, b.FConst(1.1), v))
		}
		b.Stg(b.IAdd(outp, off), acc, 0, 4)
		b.Exit()
		res := d.MustLaunch(&kernel.Launch{
			Program: b.MustBuild(),
			Grid:    kernel.Dim3{X: n / 256},
			Block:   kernel.Dim3{X: 256},
			Params:  []uint64{in, out},
		})
		return res.Cycles, res.Counters.InstExecuted
	}
	gtoCycles, gtoInst := run("gto")
	lrrCycles, lrrInst := run("lrr")
	if gtoInst != lrrInst {
		t.Errorf("policies executed different instruction counts: %d vs %d", gtoInst, lrrInst)
	}
	if gtoCycles == 0 || lrrCycles == 0 {
		t.Error("zero-cycle run")
	}
	// Policies must actually differ in schedule (almost surely different
	// durations for a memory/compute mix).
	if gtoCycles == lrrCycles {
		t.Logf("note: gto and lrr coincidentally tied at %d cycles", gtoCycles)
	}
}
