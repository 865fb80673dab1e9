package sm

import (
	"testing"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
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
			d := s.decodeInstr(&in)
			if d.pipe != info.Pipe {
				t.Errorf("%s: pipe %v, want %v", op, d.pipe, info.Pipe)
			}
			if d.throttle != throttleState(info.Pipe) {
				t.Errorf("%s: throttle %v, want %v", op, d.throttle, throttleState(info.Pipe))
			}
			if d.isMem != (info.IsLoad || info.IsStore) {
				t.Errorf("%s: isMem %v", op, d.isMem)
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
			if want := uint64(ceilDiv(kernel.WarpSize, spec.PipeLanes[info.Pipe])); d.ii != want {
				t.Errorf("%s: ii %d, want %d", op, d.ii, want)
			}
			wantDispatch := uint64(1)
			if d.isMem && size == 8 || info.Pipe == isa.PipeFP64 {
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

// TestDecodeProgramCached pins the per-SM memoisation: decoding the same
// program twice must return the same table, and distinct programs distinct
// tables.
func TestDecodeProgramCached(t *testing.T) {
	s := testSMBacked()
	p1 := singleWarpLaunch().Program
	p2 := barrierDrainLaunch().Program
	d1 := s.decodeProgram(p1)
	if s.decodeProgram(p1) != d1 {
		t.Error("re-decoding the same program built a new table")
	}
	if s.decodeProgram(p2) == d1 {
		t.Error("distinct programs share a decoded table")
	}
	if len(d1.instrs) != p1.Len() {
		t.Errorf("decoded table has %d entries for a %d-instruction program", len(d1.instrs), p1.Len())
	}
}

// runOneBlockWake is runOneBlock with the wake-list skip forced off, giving
// the classify-every-warp-every-tick reference engine.
func runOneBlockWake(t *testing.T, l *kernel.Launch, ff, noWakeList bool) smRun {
	t.Helper()
	s := testSMBacked()
	s.noWakeList = noWakeList
	if !s.CanAccept(l) {
		t.Fatalf("block of %s does not fit on an idle SM", l.Program.Name)
	}
	s.LaunchBlock(l, [3]int64{}, 0)
	var r smRun
	for guard := 0; s.Busy(); guard++ {
		if guard > 2_000_000 {
			t.Fatalf("%s: SM did not go idle", l.Program.Name)
		}
		s.Tick()
		if ff {
			if w := s.NextWakeup(); w > s.Cycle() {
				s.AdvanceTo(w)
				r.skips++
			}
		}
	}
	r.ctr = s.Counters()
	r.cycles = s.Cycle()
	return r
}

// TestWakeListEquivalence demands bit-identical counters with the per-warp
// wake-list skip on and off, for kernels covering barrier release by a dying
// peer, store drain, long-scoreboard stalls and empty subpartitions — the
// cases where a stale skip would mis-account warp states.
func TestWakeListEquivalence(t *testing.T) {
	for _, l := range []*kernel.Launch{barrierDrainLaunch(), singleWarpLaunch()} {
		ref := runOneBlockWake(t, l, false, true)
		for _, ff := range []bool{false, true} {
			got := runOneBlockWake(t, l, ff, false)
			if got.cycles != ref.cycles {
				t.Errorf("%s ff=%v: cycles %d, want %d", l.Program.Name, ff, got.cycles, ref.cycles)
			}
			if got.ctr != ref.ctr {
				t.Errorf("%s ff=%v: counters diverge from no-wake-list engine:\nref: %+v\ngot: %+v",
					l.Program.Name, ff, ref.ctr, got.ctr)
			}
		}
	}
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
		for _, sp := range s.subparts {
			for _, w := range sp.warps {
				if w != nil && w.wakeAt > s.Cycle()+1 {
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

// TestCandScratchSingleBacking pins the candidate-scratch invariant: one
// backing array, sized to a single subpartition's slots, serves every
// subpartition of every tick without ever being regrown — pick always
// consumes the slice before the next truncation.
func TestCandScratchSingleBacking(t *testing.T) {
	s := testSMBacked()
	l := multiSubpartLaunch()
	s.LaunchBlock(l, [3]int64{}, 0)
	if cap(s.candScratch) != s.spec.WarpSlotsPerSubpartition {
		t.Fatalf("initial candScratch cap %d, want %d", cap(s.candScratch), s.spec.WarpSlotsPerSubpartition)
	}
	base := &s.candScratch[:1][0]
	for guard := 0; s.Busy(); guard++ {
		if guard > 2_000_000 {
			t.Fatal("SM did not go idle")
		}
		s.Tick()
	}
	if got := &s.candScratch[:1][0]; got != base {
		t.Error("candScratch backing was reallocated during the run")
	}
	// Every warp of every subpartition executed the whole program exactly
	// once: cross-subpartition scheduling stayed correct while sharing the
	// one backing.
	want := uint64(256 / kernel.WarpSize * l.Program.Len())
	if got := s.Counters().InstExecuted; got != want {
		t.Errorf("InstExecuted %d, want %d", got, want)
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
// the maxflops-like regime the adaptive hysteresis exists for.
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

// TestAdaptiveFFGoesHotAndRearms drives a saturating ALU kernel and checks
// the hysteresis actually disables tracking, then re-arms by drain time —
// with counters identical to the non-adaptive engine.
func TestAdaptiveFFGoesHotAndRearms(t *testing.T) {
	l := saturatingLaunch()

	run := func(adaptive bool) (Counters, uint64, bool) {
		s := testSMBacked()
		s.SetAdaptiveFF(adaptive)
		s.LaunchBlock(l, [3]int64{}, 0)
		wentHot := false
		for guard := 0; s.Busy(); guard++ {
			if guard > 2_000_000 {
				t.Fatal("SM did not go idle")
			}
			s.Tick()
			if !s.wakeTrack {
				wentHot = true
			}
			if w := s.NextWakeup(); w > s.Cycle() {
				s.AdvanceTo(w)
			}
		}
		if !s.wakeTrack {
			t.Error("tracking still off after drain; re-arm failed")
		}
		return s.Counters(), s.Cycle(), wentHot
	}

	ctrAdaptive, cycAdaptive, hot := run(true)
	if !hot {
		t.Error("adaptive hysteresis never disabled tracking on a saturating kernel")
	}
	ctrAlways, cycAlways, hotOff := run(false)
	if hotOff {
		t.Error("tracking disabled with adaptive fast-forward off")
	}
	if ctrAdaptive != ctrAlways || cycAdaptive != cycAlways {
		t.Errorf("adaptive engine diverged: cycles %d vs %d", cycAdaptive, cycAlways)
	}
}

func benchTickLoop(b *testing.B, l *kernel.Launch) {
	s := testSMBacked()
	s.LaunchBlock(l, [3]int64{}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Busy() {
			s.LaunchBlock(l, [3]int64{}, 0)
		}
		s.Tick()
	}
}

// BenchmarkIssueALU measures the per-cycle cost of a saturated ALU SM —
// the decoded-cache and adaptive-tracking fast path.
func BenchmarkIssueALU(b *testing.B) {
	benchTickLoop(b, steadyLaunch())
}

// BenchmarkIssueMemory measures the per-cycle cost with the LSU path hot:
// coalescing, queue pushes and store tracking.
func BenchmarkIssueMemory(b *testing.B) {
	benchTickLoop(b, memSteadyLaunch())
}
