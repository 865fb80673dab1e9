package sm

import (
	"fmt"
	"testing"
	"unsafe"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

// TestDecodeMatchesOpInfo pins the decoded-instruction cache to the inline
// computations it replaced: for every opcode, every decoded field must equal
// the value classify/issue would have derived from isa.OpInfo on the fly.
func TestDecodeMatchesOpInfo(t *testing.T) {
	s := testSMBacked()
	spec := s.spec
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for _, size := range []uint8{4, 8} {
			in := isa.Instr{
				Op:   op,
				Dst:  isa.R(4),
				Srcs: [3]isa.Reg{isa.R(1), isa.R(2), isa.R(3)},
				Pred: isa.P1,
				PDst: isa.P2,
				Size: size,
			}
			info := op.Info()
			d := decodeInstr(spec, &in)
			if d.pipe != info.Pipe {
				t.Errorf("%s: pipe %v, want %v", op, d.pipe, info.Pipe)
			}
			if d.throttle != throttleState(info.Pipe) {
				t.Errorf("%s: throttle %v, want %v", op, d.throttle, throttleState(info.Pipe))
			}
			if want := issueClass(op, info); d.class != want {
				t.Errorf("%s: class %d, want %d", op, d.class, want)
			}
			wantQ := queueNone
			switch {
			case info.Pipe == isa.PipeLSU && op != isa.OpLDC:
				wantQ = queueLG
			case info.Pipe == isa.PipeMIO:
				wantQ = queueMIO
			case info.Pipe == isa.PipeTEX:
				wantQ = queueTEX
			}
			if d.queue != wantQ {
				t.Errorf("%s: queue %d, want %d", op, d.queue, wantQ)
			}
			// The gate is pipe and queue as one number, both ways round.
			wantGate := int(info.Pipe)
			if op == isa.OpLDC {
				wantGate = gateLDC
			}
			if int(d.gate) != wantGate || gatePipe(wantGate) != info.Pipe {
				t.Errorf("%s: gate %d behind pipe %v, want %d behind %v", op, d.gate, gatePipe(int(d.gate)), wantGate, info.Pipe)
			}
			var wantGQ *mem.TimedQueue
			sp := &s.subparts[0]
			switch wantQ {
			case queueLG:
				wantGQ = sp.lgQueue
			case queueMIO:
				wantGQ = sp.mioQueue
			case queueTEX:
				wantGQ = sp.texQueue
			}
			if sp.gateQueue(int(d.gate)) != wantGQ {
				t.Errorf("%s: gate %d waits on the wrong queue", op, d.gate)
			}
			if want := uint64(ceilDiv(kernel.WarpSize, spec.PipeLanes[info.Pipe])); d.ii != want {
				t.Errorf("%s: ii %d, want %d", op, d.ii, want)
			}
			wantDispatch := uint64(1)
			if (info.IsLoad || info.IsStore) && size == 8 || info.Pipe == isa.PipeFP64 {
				wantDispatch = 2
			}
			if d.dispatch != wantDispatch {
				t.Errorf("%s size %d: dispatch %d, want %d", op, size, d.dispatch, wantDispatch)
			}
			var wantLat uint64
			switch info.Pipe {
			case isa.PipeFMA:
				wantLat = uint64(spec.FMALatency)
			case isa.PipeFP64:
				wantLat = uint64(spec.FP64Latency)
			case isa.PipeSFU:
				wantLat = uint64(spec.SFULatency)
			default:
				wantLat = uint64(spec.ALULatency)
			}
			if d.lat != wantLat {
				t.Errorf("%s: lat %d, want %d", op, d.lat, wantLat)
			}
			regs, n := in.SourceRegs()
			if int(d.nsrcs) != n || d.srcs != regs {
				t.Errorf("%s: srcs %v/%d, want %v/%d", op, d.srcs, d.nsrcs, regs, n)
			}
			if d.checkDst != info.WritesDst {
				t.Errorf("%s: checkDst %v, want %v", op, d.checkDst, info.WritesDst)
			}
			if d.pred != in.Pred {
				t.Errorf("%s: pred %v", op, d.pred)
			}
			wantPDst := isa.PT
			if op == isa.OpSEL || op == isa.OpVOTE {
				wantPDst = in.PDst
			}
			if d.pdstRead != wantPDst {
				t.Errorf("%s: pdstRead %v, want %v", op, d.pdstRead, wantPDst)
			}
		}
	}
}

// issueClass is the chain of opcode tests issue made before the execution
// class was decoded, in its order: the class an op must decode to.
func issueClass(op isa.Op, info isa.OpInfo) uint8 {
	switch {
	case op == isa.OpNOP:
		return classNOP
	case op == isa.OpS2R:
		return classS2R
	case op == isa.OpMOV32:
		return classMOV32
	case op == isa.OpMOV:
		return classMOV
	case op == isa.OpSEL:
		return classSEL
	case op == isa.OpVOTE:
		return classVOTE
	case op == isa.OpSHFL:
		return classSHFL
	case op == isa.OpMUFU:
		return classSFU
	case op == isa.OpISETP || op == isa.OpFSETP || op == isa.OpDSETP:
		return classSETP
	case info.Pipe == isa.PipeALU || info.Pipe == isa.PipeFMA || info.Pipe == isa.PipeFP64:
		return classALU
	case info.IsLoad || info.IsStore:
		return classMem
	case op == isa.OpBRA:
		return classBRA
	case op == isa.OpEXIT:
		return classEXIT
	case op == isa.OpBAR:
		return classBAR
	case op == isa.OpMEMBAR:
		return classMEMBAR
	case op == isa.OpNANOSLEEP:
		return classNANOSLEEP
	}
	return classUnknown
}

// TestDecodedInstrSize: a decoded table is allocated per program and device,
// and a compute sweep's allocations follow its size (64 bytes cost 9.8 % more
// of them than 48), so the entry must not grow.
func TestDecodedInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(decodedInstr{}); n > 48 {
		t.Errorf("decodedInstr is %d bytes, want at most 48", n)
	}
}

// TestDecodeProgramCached pins the per-device memoisation: decoding the same
// program twice returns the same table, distinct programs get distinct
// tables, and two SMs of one device run their blocks of a program on one
// table.
func TestDecodeProgramCached(t *testing.T) {
	s := testSMBacked()
	p1 := singleWarpLaunch().Program
	p2 := barrierDrainLaunch().Program
	d1 := s.progs.decode(p1)
	if s.progs.decode(p1) != d1 {
		t.Error("re-decoding the same program built a new table")
	}
	if s.progs.decode(p2) == d1 {
		t.Error("distinct programs share a decoded table")
	}
	if len(d1.instrs) != p1.Len() {
		t.Errorf("decoded table has %d entries for a %d-instruction program", len(d1.instrs), p1.Len())
	}
	peer := New(s.spec, 1, mem.NewMemSys(s.spec), s.storage, s.constBank, s.progs)
	l := multiSubpartLaunch()
	s.LaunchBlock(l, [3]int64{}, 0)
	peer.LaunchBlock(l, [3]int64{1}, 1)
	if a, b := residents(s)[0].block.dec, residents(peer)[0].block.dec; a != b || s.progs.Len() != 3 {
		t.Errorf("two SMs of one device decoded %s into distinct tables (%v) or the device holds %d tables, want 3", l.Program.Name, a != b, s.progs.Len())
	}
}

// accountingLaunches is the kernel set the accounting tests run on an SM of
// the given model: barrier release by a dying peer, store drain,
// long-scoreboard stalls, an empty subpartition, a fully occupied SM, steady
// memory traffic, MEMBAR with divergent branches and a partial last warp, a
// barrier released mid-pass by a death in an earlier or a later slot, warps
// queueing for the fetch port, and bounds on both sides of the wake index's
// wheel.
func accountingLaunches(spec *gpu.Spec) []*kernel.Launch {
	return []*kernel.Launch{barrierDrainLaunch(), singleWarpLaunch(), multiSubpartLaunch(),
		saturatingLaunch(), memSteadyLaunch(), divergentMembarLaunch(),
		deathReleaseLaunch(false), deathReleaseLaunch(true), fetchContendedLaunch(), wheelBoundaryLaunch(spec)}
}

// deathReleaseLaunch builds an 8-warp block in which the barrier is released
// by a death, not an arrival: one half of the warps reaches the barrier at
// once, the other half runs an FFMA chain and exits without reaching it, and
// the last of those deaths — found by own during a subpartition's pass —
// releases the waiters. Warps are dealt to subpartitions round-robin, so the
// first half sits in earlier slots than the second on every subpartition:
// with lateWaiters the released warps sit after the dying one and are
// reclassified in the same pass, otherwise before it and in the next tick.
func deathReleaseLaunch(lateWaiters bool) *kernel.Launch {
	name := "deathrelease_early"
	if lateWaiters {
		name = "deathrelease_late"
	}
	b := kernel.NewBuilder(name)
	gid := b.GlobalIDX()
	waiter := b.ISetpImm(isa.CmpLT, b.S2R(isa.SRWarpID), 4)
	if lateWaiters {
		waiter = b.ISetpImm(isa.CmpGE, b.S2R(isa.SRWarpID), 4)
	}
	b.If(waiter)
	b.Bar()
	b.Stg(b.IAddImm(b.Shl(gid, 2), 4096), gid, 0, 4)
	b.Else()
	x := b.I2F(gid)
	for i := 0; i < 12; i++ {
		x = b.FFma(x, x, x)
	}
	b.Stg(b.IAddImm(b.Shl(gid, 2), 4096), x, 0, 4)
	b.EndIf()
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 256},
	}
}

// fetchContendedLaunch keeps 16 warps on every subpartition of a GTX 1070 (two
// 1024-thread blocks) asking for the SM's one fetch port at once: each warp
// runs its own straight-line body, on instruction-cache lines no other warp of
// its subpartition runs, so nearly every instruction-buffer refill is a
// fetch, and most fetches find the port busy.
func fetchContendedLaunch() *kernel.Launch {
	b := kernel.NewBuilder("fetchcontend")
	gid := b.GlobalIDX()
	body := b.AndImm(b.Shr(gid, 7), 15) // global warp index / 4: distinct among the 16 warps of a GTX 1070 subpartition
	x := b.MovImm(1)
	b.ForImm(0, 2, 1)
	for k := int64(0); k < 16; k++ {
		b.If(b.ISetpImm(isa.CmpEQ, body, k))
		for i := 0; i < 24; i++ { // x += k in place: a 1024-thread block has few registers to spare
			b.Emit(isa.Instr{Op: isa.OpIADD, Dst: x, Srcs: [3]isa.Reg{x, isa.RZ, isa.RZ}, Imm: k})
		}
		b.EndIf()
	}
	b.EndFor()
	b.Stg(b.IAddImm(b.Shl(gid, 2), 4096), x, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 2},
		Block:   kernel.Dim3{X: 1024},
	}
}

// wheelBoundaryLaunch builds a block whose bounds fall on both sides of the
// wake index's wheel edge and far past it: NANOSLEEP 63, 64 and 65 make the
// issue itself file bounds that many cycles out; a dependent chase around a
// 128 KiB ring, laid out to thrash the L1, waits out mostly DRAM latencies on
// its first lap and L2 hits on its second; and each of the 8 warps sleeps
// between a load and its use, for a time that puts the use's scoreboard bound
// 61 to 68 cycles out when own files it on the second lap. The waits are long
// enough that the fast-forward jumps cross many wheel wraps.
func wheelBoundaryLaunch(spec *gpu.Spec) *kernel.Launch {
	const ring = 1 << 17
	b := kernel.NewBuilder("wheelboundary")
	gid := b.GlobalIDX()
	wid := b.S2R(isa.SRWarpID)
	b.Nanosleep(63)
	b.Nanosleep(64)
	b.Nanosleep(65)
	off := b.Shl(wid, 12)
	b.ForImm(0, 2*ring/4096, 1)
	for k := int64(0); k < 8; k++ {
		b.If(b.ISetpImm(isa.CmpEQ, wid, k))
		v := b.Ldg(off, 8192, 4) // the ring is never written: v is zero, but a true dependency
		b.Nanosleep(int64(spec.L2Latency) - 62 - k)
		b.MovTo(off, b.AndImm(b.IAddImm(b.IAdd(off, v), 4096), ring-1))
		b.EndIf()
	}
	b.EndFor()
	b.Stg(b.IAddImm(b.Shl(gid, 2), 8192+ring), off, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 256},
	}
}

// divergentMembarLaunch builds a 72-thread block (two full warps and an
// 8-lane one) whose lanes diverge on parity, store on both paths, fence and
// store again.
func divergentMembarLaunch() *kernel.Launch {
	b := kernel.NewBuilder("divmembar")
	gid := b.GlobalIDX()
	addr := b.IAddImm(b.Shl(gid, 2), 16384)
	v := b.Ldg(addr, 0, 4)
	b.If(b.ISetpImm(isa.CmpEQ, b.AndImm(gid, 1), 0))
	b.Stg(addr, b.IAdd(v, gid), 0, 4)
	b.Else()
	b.Stg(addr, b.IMul(v, gid), 2048, 4)
	b.EndIf()
	b.Membar()
	b.Stg(addr, v, 4096, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 72},
	}
}

// TestWakeListEquivalence demands bit-identical counters — at the end and
// every 97 cycles on the way — between the reference engine (noWakeList:
// neither the wake-table skip nor sticky readiness, every warp classified
// from scratch every tick) and the production loop with and without
// fast-forward, for kernels covering the cases where a stale skip or a stale
// readiness flag would mis-account warp states.
func TestWakeListEquivalence(t *testing.T) {
	for _, spec := range equivalenceSpecs() {
		for _, l := range accountingLaunches(spec) {
			ref := runGrid(t, l, runCfg{spec: spec, noWakeList: true, every: 97})
			for _, ff := range []bool{false, true} {
				got := runGrid(t, l, runCfg{spec: spec, ff: ff, every: 97})
				assertSameRun(t, fmt.Sprintf("%s %s ff=%v", spec.Name, l.Program.Name, ff), ref, got)
			}
		}
	}
}

// equivalenceSpecs are the SM models the equivalence tests run on: a one-SM
// RTX 4000 (2 × 16 warp slots, a fetch port serving a line a cycle) and a
// one-SM GTX 1070 (4 × 16 slots, a line every 3 cycles).
func equivalenceSpecs() []*gpu.Spec {
	return []*gpu.Spec{gpu.QuadroRTX4000().WithSMs(1), gpu.GTX1070().WithSMs(1)}
}

// TestWakeListSkipsClassify verifies the wake-list actually arms: during a
// long-scoreboard stall the stalled warp must carry a bound strictly past
// the next cycle, which is what lets Tick bypass classify for it.
func TestWakeListSkipsClassify(t *testing.T) {
	s := testSMBacked()
	l := singleWarpLaunch()
	s.LaunchBlock(l, [3]int64{}, 0)
	armed := false
	for guard := 0; s.Busy() && !armed; guard++ {
		if guard > 2_000_000 {
			t.Fatal("SM did not go idle")
		}
		s.Tick()
		for i := range s.subparts {
			sp := &s.subparts[i]
			for slot, w := range sp.warps {
				if w != nil && sp.wakeAt[slot] > s.Cycle()+1 {
					armed = true
				}
			}
		}
	}
	if !armed {
		t.Error("no warp ever armed a wake-list bound past the next cycle")
	}
}

// multiSubpartLaunch builds one block whose warps land on every
// subpartition: 8 warps of straight-line ALU work.
func multiSubpartLaunch() *kernel.Launch {
	b := kernel.NewBuilder("multisubp")
	gid := b.GlobalIDX()
	x := b.I2F(gid)
	for i := 0; i < 6; i++ {
		x = b.FFma(x, x, x)
	}
	addr := b.IAddImm(b.Shl(gid, 2), 4096)
	b.Stg(addr, x, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 256},
	}
}

// steadyLaunch builds a long-running single block (a deep FFMA reduction
// loop) that keeps all subpartitions busy for thousands of cycles with no
// launches or reaps — the steady state the allocation gate measures.
func steadyLaunch() *kernel.Launch {
	b := kernel.NewBuilder("steady")
	gid := b.GlobalIDX()
	x := b.I2F(gid)
	b.ForImm(0, 2000, 1)
	x = b.FFma(x, x, x)
	b.EndFor()
	addr := b.IAddImm(b.Shl(gid, 2), 4096)
	b.Stg(addr, x, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 256},
	}
}

// TestTickSteadyStateAllocs is the zero-allocation gate on the cycle loop:
// with tracing off, a steady-state Tick must not allocate at all.
func TestTickSteadyStateAllocs(t *testing.T) {
	s := testSMBacked()
	s.LaunchBlock(steadyLaunch(), [3]int64{}, 0)
	for i := 0; i < 200 && s.Busy(); i++ {
		s.Tick() // warm up: fetch, decode, scratch growth
	}
	if !s.Busy() {
		t.Fatal("steady kernel drained during warm-up; lengthen the loop")
	}
	allocs := testing.AllocsPerRun(400, func() { s.Tick() })
	if allocs != 0 {
		t.Errorf("steady-state Tick allocates %v per call, want 0", allocs)
	}
	if !s.Busy() {
		t.Fatal("steady kernel drained during measurement; lengthen the loop")
	}
}

// memSteadyLaunch is steadyLaunch with a strided global load/store pair in
// the loop body, driving the coalescer and LG queue every iteration.
func memSteadyLaunch() *kernel.Launch {
	b := kernel.NewBuilder("memsteady")
	gid := b.GlobalIDX()
	addr := b.IAddImm(b.Shl(gid, 3), 8192) // stride 8: two sectors per warp quad
	b.ForImm(0, 2000, 1)
	v := b.Ldg(addr, 0, 4)
	b.Stg(addr, v, 4, 4)
	b.EndFor()
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 256},
	}
}

// TestIssueMemorySteadyStateAllocs extends the zero-allocation gate to the
// memory issue path: coalescing into the SM scratch buffer and appending to
// the warps' store lists must not allocate once warm.
func TestIssueMemorySteadyStateAllocs(t *testing.T) {
	s := testSMBacked()
	s.LaunchBlock(memSteadyLaunch(), [3]int64{}, 0)
	for i := 0; i < 3000 && s.Busy(); i++ {
		s.Tick()
	}
	if !s.Busy() {
		t.Fatal("memory kernel drained during warm-up; lengthen the loop")
	}
	allocs := testing.AllocsPerRun(400, func() { s.Tick() })
	if allocs != 0 {
		t.Errorf("steady-state memory Tick allocates %v per call, want 0", allocs)
	}
}

// TestBlockWarpRecycle pins the block/warp free lists: once a launch's
// blocks have retired, an identical relaunch on the same SM takes every
// context from the lists (registers, stacks, store lists and shared memory
// included), allocates nothing, and hands them all back.
func TestBlockWarpRecycle(t *testing.T) {
	s := testSMBacked()
	l := multiSubpartLaunch()
	run := func() {
		s.LaunchBlock(l, [3]int64{}, 0)
		for guard := 0; s.Busy(); guard++ {
			if guard > 2_000_000 {
				t.Fatal("SM did not go idle")
			}
			s.Tick()
		}
	}
	run()
	blocks, warps := len(s.freeBlocks), len(s.freeWarps)
	if blocks != 1 || warps != l.WarpsPerBlock() {
		t.Fatalf("after one block of %d warps the free lists hold %d blocks, %d warps", l.WarpsPerBlock(), blocks, warps)
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Errorf("an identical relaunch allocates %v times, want 0", allocs)
	}
	if len(s.freeBlocks) != blocks || len(s.freeWarps) != warps {
		t.Errorf("free lists drifted across identical relaunches: %d/%d -> %d/%d blocks/warps",
			blocks, warps, len(s.freeBlocks), len(s.freeWarps))
	}
}

// saturatingLaunch fills every warp slot (8 warps per subpartition) with
// independent FFMA/IADD chains so some warp can issue on every cycle —
// the maxflops-like regime in which nothing is ever skippable.
func saturatingLaunch() *kernel.Launch {
	b := kernel.NewBuilder("saturate")
	gid := b.GlobalIDX()
	x := b.I2F(gid)
	y := b.MovImm(3)
	b.ForImm(0, 300, 1)
	x = b.FFma(x, x, x)
	y = b.IAdd(y, y)
	x = b.FFma(x, x, x)
	y = b.IAdd(y, y)
	b.EndFor()
	addr := b.IAddImm(b.Shl(gid, 2), 4096)
	b.Stg(addr, b.IAdd(b.F2I(x), y), 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 1024},
	}
}

// benchTickLoop ticks an SM kept busy with the given number of resident
// blocks of l, relaunching them whenever it drains.
func benchTickLoop(b *testing.B, s *SM, l *kernel.Launch, blocks int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Busy() {
			for j := 0; j < blocks; j++ {
				s.LaunchBlock(l, [3]int64{}, 0)
			}
		}
		s.Tick()
	}
}

// BenchmarkIssueALU measures the per-cycle cost of a saturated ALU SM: the
// wake index's due slots, one decision per gate, pick, the FFMA lane loop and
// issueReady settling the issued warp.
func BenchmarkIssueALU(b *testing.B) {
	benchTickLoop(b, testSMBacked(), steadyLaunch(), 1)
}

// BenchmarkIssueMemory measures the per-cycle cost with the LSU path hot:
// coalescing, queue pushes and store tracking.
func BenchmarkIssueMemory(b *testing.B) {
	benchTickLoop(b, testSMBacked(), memSteadyLaunch(), 1)
}

// stalledLaunch builds a 1024-thread block in which the warps of
// subpartition 0 (every fourth warp on a GTX 1070) run an FFMA loop while all
// the others chase a dependent chain of global loads around a 256 KiB ring —
// larger than the L1, so every iteration waits an L2 round trip on the long
// scoreboard.
func stalledLaunch() *kernel.Launch {
	b := kernel.NewBuilder("stalled")
	gid := b.GlobalIDX()
	off := b.Shl(gid, 2)
	x := b.I2F(gid)
	b.If(b.ISetpImm(isa.CmpEQ, b.AndImm(b.S2R(isa.SRWarpID), 3), 0))
	b.ForImm(0, 200, 1)
	b.MovTo(x, b.FFma(x, x, x))
	b.EndFor()
	b.Else()
	b.ForImm(0, 60, 1)
	v := b.Ldg(off, 8192, 4) // the ring is never written: v is zero, but a true dependency
	b.MovTo(off, b.AndImm(b.IAddImm(b.IAdd(off, v), 4096), 1<<18-1))
	b.EndFor()
	b.EndIf()
	b.Stg(b.Shl(gid, 2), x, 8192+1<<18, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 1024},
	}
}

// BenchmarkTickStalled measures the per-cycle cost when most of a full SM is
// blocked: 64 resident warps on a GTX 1070, 48 of them on long-scoreboard
// loads, one subpartition issuing. Fast-forward cannot skip (something issues
// every cycle), so this is the regime the wake table serves: a tick must cost
// what changes in it, not what is resident.
func BenchmarkTickStalled(b *testing.B) {
	benchTickLoop(b, testSMOf(gpu.GTX1070().WithSMs(1)), stalledLaunch(), 2)
}

// BenchmarkTickFetchContended measures the per-cycle cost of warps queueing
// for the SM's one fetch port: 16 warps on every subpartition of a GTX 1070,
// each on instruction-cache lines of its own, the port serving a line every 3
// cycles. A warp the port turns away waits on the port and costs nothing
// until it frees.
func BenchmarkTickFetchContended(b *testing.B) {
	benchTickLoop(b, testSMOf(gpu.GTX1070().WithSMs(1)), fetchContendedLaunch(), 2)
}
