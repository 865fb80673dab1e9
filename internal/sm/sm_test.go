package sm

import (
	"fmt"
	"testing"
	"testing/quick"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

func testSM() *SM {
	spec := gpu.QuadroRTX4000().WithSMs(1)
	ms := mem.NewMemSys(spec)
	st := mem.NewStorage(1 << 20)
	cb := mem.NewConstantBank(spec.ConstBankSize)
	return New(spec, 0, ms, st, cb, NewPrograms(spec))
}

func trivialLaunch(threads int) *kernel.Launch {
	b := kernel.NewBuilder("triv")
	b.MovImm(1)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: threads},
	}
}

func TestWarpStateStringsTotal(t *testing.T) {
	seen := map[string]bool{}
	for s := WarpState(0); s < NumWarpStates; s++ {
		n := s.String()
		if n == "" || seen[n] {
			t.Errorf("state %d name %q empty or duplicated", s, n)
		}
		seen[n] = true
	}
	if WarpState(99).String() == "" {
		t.Error("out-of-range state has empty name")
	}
}

func TestCountersAddSubRoundtrip(t *testing.T) {
	f := func(a, b uint64, s1, s2 uint8) bool {
		var x, y Counters
		x.InstExecuted = a
		x.WarpStateCycles[s1%NumWarpStates] = b
		y.InstIssued = b
		y.WarpStateCycles[s2%NumWarpStates] = a
		sum := x
		sum.Add(&y)
		back := sum.Sub(&y)
		return back == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// newWarp is a fresh warp context, as LaunchBlock makes one when its free
// list is empty.
func newWarp(subp, slot, warpInBlock int, blk *blockCtx, members uint32, numRegs int, seq uint64) *warp {
	w := new(warp)
	w.reset(subp, slot, warpInBlock, blk, members, numRegs, seq)
	return w
}

func TestSIMTStackDivergeReconverge(t *testing.T) {
	w := newWarp(0, 0, 0, nil, 0xFFFFFFFF, 8, 1)
	if got := w.activeMask(); got != 0xFFFFFFFF {
		t.Fatalf("initial mask %x", got)
	}
	// Simulate a divergent branch at pc=5, recon=10, taken mask = odd lanes.
	taken := uint32(0xAAAAAAAA)
	top := w.top()
	top.pc = 10 // becomes recon entry
	w.stack = append(w.stack,
		stackEntry{pc: 8, rpc: 10, mask: taken},
		stackEntry{pc: 6, rpc: 10, mask: ^taken},
	)
	w.syncStack()
	if w.top().pc != 6 || w.activeMask() != ^taken {
		t.Fatalf("fallthrough path not on top: pc=%d mask=%x", w.top().pc, w.activeMask())
	}
	// Fallthrough path reaches the reconvergence point.
	w.top().pc = 10
	w.syncStack()
	if w.top().pc != 8 || w.activeMask() != taken {
		t.Fatalf("taken path not resumed: pc=%d mask=%x", w.top().pc, w.activeMask())
	}
	// Taken path reaches reconvergence: full warp resumes at 10.
	w.top().pc = 10
	w.syncStack()
	if len(w.stack) != 1 || w.activeMask() != 0xFFFFFFFF || w.top().pc != 10 {
		t.Fatalf("reconvergence failed: depth=%d mask=%x pc=%d", len(w.stack), w.activeMask(), w.top().pc)
	}
}

func TestSyncStackDropsDeadRegions(t *testing.T) {
	w := newWarp(0, 0, 0, nil, 0xF, 8, 1)
	w.stack = append(w.stack, stackEntry{pc: 3, rpc: 9, mask: 0x3})
	w.exited = 0x3 // the whole nested region exits
	w.syncStack()
	if len(w.stack) != 1 {
		t.Fatalf("dead region not popped, depth=%d", len(w.stack))
	}
	if w.finished {
		t.Fatal("warp wrongly finished with live lanes")
	}
	w.exited = 0xF
	w.syncStack()
	if !w.finished {
		t.Fatal("warp with all lanes exited not finished")
	}
}

func TestPredMask(t *testing.T) {
	w := newWarp(0, 0, 0, nil, 0xFFFFFFFF, 8, 1)
	w.setPred(isa.P2, 0xFFFFFFFF, 0x0000FFFF)
	if got := w.predMask(isa.P2, false); got != 0x0000FFFF {
		t.Errorf("predMask = %x", got)
	}
	if got := w.predMask(isa.P2, true); got != 0xFFFF0000 {
		t.Errorf("negated predMask = %x", got)
	}
	if got := w.predMask(isa.PT, false); got != 0xFFFFFFFF {
		t.Errorf("PT mask = %x", got)
	}
	// Partial update preserves other lanes.
	w.setPred(isa.P2, 0x3, 0x1)
	if got := w.predMask(isa.P2, false); got != 0x0000FFFD {
		t.Errorf("partial setPred = %x", got)
	}
}

func TestScoreboardBlockPicksLatest(t *testing.T) {
	s := testSM()
	w := newWarp(0, 0, 0, nil, 0xFFFFFFFF, 16, 1)
	w.setRegReady(isa.R(1), 100, depLong)
	w.setRegReady(isa.R(2), 50, depShort)
	in := decodeInstr(s.spec, &isa.Instr{Op: isa.OpIADD, Dst: isa.R(3), Srcs: [3]isa.Reg{isa.R(1), isa.R(2), isa.RZ}})
	ready, kind := w.scoreboardDec(&in)
	if ready != 100 || kind != depLong {
		t.Errorf("scoreboard = (%d,%v), want (100,depLong)", ready, kind)
	}
	// WAW on destination.
	in2 := decodeInstr(s.spec, &isa.Instr{Op: isa.OpMOV32, Dst: isa.R(1)})
	ready2, _ := w.scoreboardDec(&in2)
	if ready2 != 100 {
		t.Errorf("WAW not detected: %d", ready2)
	}
}

func TestDepKindStates(t *testing.T) {
	cases := map[depKind]WarpState{
		depFixed: StateWait,
		depLong:  StateLongScoreboard,
		depShort: StateShortScoreboard,
		depIMC:   StateIMCMiss,
		depNone:  StateWait,
	}
	for k, want := range cases {
		if got := k.stallState(); got != want {
			t.Errorf("%v.stallState() = %v, want %v", k, got, want)
		}
	}
}

func TestOccupancyAccounting(t *testing.T) {
	s := testSM()
	l := trivialLaunch(256)
	if !s.CanAccept(l) {
		t.Fatal("empty SM rejects small block")
	}
	n := 0
	for s.CanAccept(l) {
		s.LaunchBlock(l, [3]int64{int64(n), 0, 0}, n)
		n++
		if n > 100 {
			t.Fatal("CanAccept never saturates")
		}
	}
	spec := s.spec
	maxByThreads := spec.MaxThreadsPerSM / 256
	maxByWarps := spec.WarpsPerSM() / 8
	want := maxByThreads
	if maxByWarps < want {
		want = maxByWarps
	}
	if spec.MaxBlocksPerSM < want {
		want = spec.MaxBlocksPerSM
	}
	if n != want {
		t.Errorf("accepted %d blocks, want %d", n, want)
	}
	// Run to completion and verify resources return to zero.
	for s.Busy() {
		s.Tick()
	}
	if s.residentBlocks != 0 || s.residentThreads != 0 || s.residentWarps != 0 ||
		s.residentRegs != 0 || s.residentShared != 0 {
		t.Errorf("resources leaked: blocks=%d threads=%d warps=%d regs=%d shared=%d",
			s.residentBlocks, s.residentThreads, s.residentWarps, s.residentRegs, s.residentShared)
	}
}

func TestSharedMemoryLimitsResidency(t *testing.T) {
	s := testSM()
	b := kernel.NewBuilder("bigshared")
	b.DeclShared(s.spec.SharedMemPerSM/2 + 1)
	b.Exit()
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 4}, Block: kernel.Dim3{X: 32}}
	if !s.CanAccept(l) {
		t.Fatal("first block rejected")
	}
	s.LaunchBlock(l, [3]int64{0, 0, 0}, 0)
	if s.CanAccept(l) {
		t.Error("second block accepted despite shared-memory limit")
	}
}

func TestRegisterLimitsResidency(t *testing.T) {
	s := testSM()
	b := kernel.NewBuilder("reghog")
	for i := 0; i < 200; i++ {
		b.Reg()
	}
	b.Exit()
	prog := b.MustBuild()
	// 200 regs x 512 threads = 102400 > 65536: must be rejected.
	l := &kernel.Launch{Program: prog, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 512}}
	if s.CanAccept(l) {
		t.Error("register-file overcommit accepted")
	}
	l2 := &kernel.Launch{Program: prog, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 128}}
	if !s.CanAccept(l2) {
		t.Error("fitting block rejected")
	}
}

func TestTickIdleSM(t *testing.T) {
	s := testSM()
	s.Tick()
	c := s.Counters()
	if c.ActiveCycles != 0 {
		t.Error("idle tick counted as active")
	}
	if c.ElapsedCycles != 1 {
		t.Errorf("elapsed = %d", c.ElapsedCycles)
	}
}

func TestBeginLaunchPanicsWhenBusy(t *testing.T) {
	s := testSM()
	s.LaunchBlock(trivialLaunch(32), [3]int64{0, 0, 0}, 0)
	defer func() {
		if recover() == nil {
			t.Error("BeginLaunch on busy SM did not panic")
		}
	}()
	s.BeginLaunch(0, 32)
}

func TestGTOPrefersSameWarp(t *testing.T) {
	s := testSM()
	sp := &s.subparts[0]
	sp.warps[1] = &warp{launchSeq: 9}
	sp.warps[3] = &warp{launchSeq: 4}
	sp.warps[5] = &warp{launchSeq: 2}
	sp.lastIssued = 3
	if got := s.pick(sp, 1<<1|1<<3|1<<5); got != 3 {
		t.Errorf("GTO picked %d, want greedy 3", got)
	}
	// Oldest otherwise.
	sp.lastIssued = 0
	if got := s.pick(sp, 1<<1|1<<5); got != 5 {
		t.Errorf("GTO picked %d, want oldest 5", got)
	}
	if got := s.pick(sp, 0); got != -1 {
		t.Errorf("empty candidates -> %d", got)
	}
}

func TestLRRRotates(t *testing.T) {
	spec := *gpu.QuadroRTX4000().WithSMs(1)
	spec.SchedulingPolicy = "lrr"
	s := testSMOf(&spec)
	sp := &s.subparts[0]
	sp.lastIssued = 3
	if got := s.pick(sp, 1<<1|1<<3|1<<5); got != 5 {
		t.Errorf("LRR picked %d, want next-after-3 = 5", got)
	}
	sp.lastIssued = 5
	if got := s.pick(sp, 1<<1|1<<3); got != 1 {
		t.Errorf("LRR picked %d, want wraparound 1", got)
	}
}

func TestDrainStores(t *testing.T) {
	w := newWarp(0, 0, 0, nil, 1, 4, 1)
	w.storesPending = []uint64{10, 30, 20}
	if n := w.drainStores(15); n != 2 {
		t.Errorf("pending after t=15: %d, want 2", n)
	}
	if w.lastStoreDone() != 30 {
		t.Errorf("lastStoreDone = %d", w.lastStoreDone())
	}
	if n := w.drainStores(100); n != 0 {
		t.Errorf("pending after t=100: %d", n)
	}
}

func TestThreadIDMapping(t *testing.T) {
	blk := &blockCtx{launch: &kernel.Launch{Block: kernel.Dim3{X: 8, Y: 4, Z: 2}}}
	x, y, z := blk.threadID(0, 0)
	if x != 0 || y != 0 || z != 0 {
		t.Errorf("thread 0 = (%d,%d,%d)", x, y, z)
	}
	x, y, z = blk.threadID(0, 13) // linear 13 = x 5, y 1, z 0
	if x != 5 || y != 1 || z != 0 {
		t.Errorf("thread 13 = (%d,%d,%d), want (5,1,0)", x, y, z)
	}
	x, y, z = blk.threadID(1, 10) // linear 42 = x 2, y 1, z 1
	if x != 2 || y != 1 || z != 1 {
		t.Errorf("thread 42 = (%d,%d,%d), want (2,1,1)", x, y, z)
	}
}

func TestSharedAccessBounds(t *testing.T) {
	blk := &blockCtx{
		launch: &kernel.Launch{Program: &kernel.Program{Name: "x"}},
		shared: make([]byte, 64),
	}
	blk.sharedWrite(0, 42, 4)
	if blk.sharedRead(0, 4) != 42 {
		t.Error("shared roundtrip failed")
	}
	blk.sharedWrite(56, 1<<40, 8)
	if blk.sharedRead(56, 8) != 1<<40 {
		t.Error("8-byte shared roundtrip failed")
	}
	// Past the end, and addresses a kernel computed negative: they arrive as
	// large ones, and the check must not wrap round to pass them.
	for _, addr := range []uint64{62, 64, 1<<64 - 2, 1 << 63, 1<<64 - 8} {
		for _, write := range []bool{false, true} {
			what := "read"
			if write {
				what = "write"
			}
			func() {
				defer func() {
					want := fmt.Sprintf("sm: shared %s of 4 bytes at 0x%x outside 64-byte block allocation (kernel x)", what, addr)
					if r := recover(); r != want {
						t.Errorf("shared %s at 0x%x panicked with %v, want %q", what, addr, r, want)
					}
				}()
				if write {
					blk.sharedWrite(addr, 1, 4)
				} else {
					blk.sharedRead(addr, 4)
				}
			}()
		}
	}
}
