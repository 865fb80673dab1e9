package sim

import (
	"math"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
	"gputopdown/internal/sm"
)

// testSpec returns a small Turing-like device for fast tests.
func testSpec() *gpu.Spec { return gpu.QuadroRTX4000().WithSMs(2) }

// testSpecPascal returns a small Pascal-like device for fast tests.
func testSpecPascal() *gpu.Spec { return gpu.GTX1070().WithSMs(2) }

// buildSaxpy builds y[i] = a*x[i] + y[i] with an n-guard.
func buildSaxpy() *kernel.Program {
	b := kernel.NewBuilder("saxpy")
	xs := b.Param(0)
	ys := b.Param(1)
	n := b.Param(2)
	a := b.Param(3) // float bits in low 32
	gid := b.GlobalIDX()
	p := b.ISetp(isa.CmpGE, gid, n)
	b.ExitIf(p, false)
	off := b.Shl(gid, 2)
	xa := b.IAdd(xs, off)
	ya := b.IAdd(ys, off)
	x := b.Ldg(xa, 0, 4)
	y := b.Ldg(ya, 0, 4)
	r := b.FFma(a, x, y)
	b.Stg(ya, r, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func TestSaxpyCorrectness(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 1000
	xs := d.Alloc(n * 4)
	ys := d.Alloc(n * 4)
	xh := make([]float32, n)
	yh := make([]float32, n)
	for i := range xh {
		xh[i] = float32(i)
		yh[i] = float32(2 * i)
	}
	d.Storage.WriteF32Slice(xs, xh)
	d.Storage.WriteF32Slice(ys, yh)

	l := &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: (n + 127) / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{xs, ys, n, uint64(f32b(3.0))},
	}
	res := d.MustLaunch(l)

	out := d.Storage.ReadF32Slice(ys, n)
	for i := 0; i < n; i++ {
		want := 3.0*xh[i] + yh[i]
		if out[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, out[i], want)
		}
	}
	if res.Cycles == 0 || res.Counters.InstExecuted == 0 {
		t.Errorf("empty result: %+v", res)
	}
}

func f32b(f float32) uint32 { return math.Float32bits(f) }

func float32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }

func TestCounterInvariants(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 4096
	xs := d.Alloc(n * 4)
	ys := d.Alloc(n * 4)
	l := &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: n / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{xs, ys, n, uint64(float32bits(1.5))},
	}
	d.Storage.WriteF32Slice(xs, make([]float32, n))
	d.Storage.WriteF32Slice(ys, make([]float32, n))
	res := d.MustLaunch(l)
	c := &res.Counters

	if c.StateSum() != c.ActiveWarpCycles {
		t.Errorf("state sum %d != active warp cycles %d", c.StateSum(), c.ActiveWarpCycles)
	}
	if c.InstIssued < c.InstExecuted {
		t.Errorf("issued %d < executed %d", c.InstIssued, c.InstExecuted)
	}
	if c.WarpStateCycles[sm.StateSelected] != c.InstIssued {
		t.Errorf("selected cycles %d != issued %d", c.WarpStateCycles[sm.StateSelected], c.InstIssued)
	}
	if c.ThreadInstExecuted > c.InstExecuted*32 {
		t.Errorf("thread insts %d > executed*32 %d", c.ThreadInstExecuted, c.InstExecuted*32)
	}
	// IPC bound: per-SM issue rate cannot exceed dispatch units per SM.
	spec := testSpec()
	ipc := float64(c.InstIssued) / float64(c.ActiveCycles) / float64(res.SMsUsed)
	if ipc > spec.IPCMax()+1e-9 {
		t.Errorf("per-SM IPC %g exceeds IPC_MAX %g", ipc, spec.IPCMax())
	}
	if c.BlocksLaunched != uint64(res.Blocks) {
		t.Errorf("blocks launched %d != %d", c.BlocksLaunched, res.Blocks)
	}
	if res.SMsUsed < 2 {
		t.Errorf("grid of %d blocks used %d SMs", res.Blocks, res.SMsUsed)
	}
}

// buildDivergent: threads with odd lane take a multiply-heavy path, even
// lanes an add-heavy path.
func buildDivergent() *kernel.Program {
	b := kernel.NewBuilder("divergent")
	out := b.Param(0)
	gid := b.GlobalIDX()
	lane := b.AndImm(gid, 1)
	p := b.ISetpImm(isa.CmpEQ, lane, 1)
	acc := b.MovImm(0)
	b.If(p)
	for i := 0; i < 8; i++ {
		v := b.IMulImm(gid, int64(i+3))
		b.MovTo(acc, v)
	}
	b.Else()
	for i := 0; i < 8; i++ {
		v := b.IAddImm(gid, int64(i+7))
		b.MovTo(acc, v)
	}
	b.EndIf()
	addr := b.IMad(gid, b.MovImm(4), out)
	b.Stg(addr, acc, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func TestDivergenceCorrectnessAndCounting(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 256
	out := d.Alloc(n * 4)
	l := &kernel.Launch{
		Program: buildDivergent(),
		Grid:    kernel.Dim3{X: 2},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{out},
	}
	res := d.MustLaunch(l)
	vals := d.Storage.ReadU32Slice(out, n)
	for i := 0; i < n; i++ {
		var want uint32
		if i%2 == 1 {
			want = uint32(i * 10) // last iteration: gid*(7+3)
		} else {
			want = uint32(i + 14) // last iteration: gid+(7+7)
		}
		if vals[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, vals[i], want)
		}
	}
	if res.Counters.DivergentBranches == 0 {
		t.Error("no divergent branches counted")
	}
	// Warp efficiency must be visibly below 1: both paths execute with half
	// the lanes active.
	eff := float64(res.Counters.ThreadInstExecuted) / (float64(res.Counters.InstExecuted) * 32)
	if eff > 0.95 {
		t.Errorf("warp efficiency %.2f too high for divergent kernel", eff)
	}
	if eff < 0.3 {
		t.Errorf("warp efficiency %.2f implausibly low", eff)
	}
}

// buildLoopSum: out[i] = sum of 0..i-1 via a data-dependent loop bound.
func buildLoopSum() *kernel.Program {
	b := kernel.NewBuilder("loopsum")
	out := b.Param(0)
	gid := b.GlobalIDX()
	acc := b.MovImm(0)
	i := b.For(0, gid, 1)
	v := b.IAdd(acc, i)
	b.MovTo(acc, v)
	b.EndFor()
	addr := b.IMad(gid, b.MovImm(4), out)
	b.Stg(addr, acc, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func TestLoopWithDivergentTripCounts(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 64
	out := d.Alloc(n * 4)
	l := &kernel.Launch{
		Program: buildLoopSum(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: n},
		Params:  []uint64{out},
	}
	d.MustLaunch(l)
	vals := d.Storage.ReadU32Slice(out, n)
	for i := 0; i < n; i++ {
		want := uint32(i * (i - 1) / 2)
		if vals[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, vals[i], want)
		}
	}
}

// buildReduction: block-wide shared-memory tree reduction with barriers.
func buildReduction() *kernel.Program {
	b := kernel.NewBuilder("reduce")
	in := b.Param(0)
	out := b.Param(1)
	sh := b.DeclShared(256 * 4)
	tid := b.S2R(isa.SRTidX)
	gid := b.GlobalIDX()
	four := b.MovImm(4)
	v := b.Ldg(b.IMad(gid, four, in), 0, 4)
	shAddr := b.IMad(tid, four, b.MovImm(sh))
	b.Sts(shAddr, v, 0, 4)
	b.Bar()
	for stride := 128; stride >= 1; stride /= 2 {
		p := b.ISetpImm(isa.CmpLT, tid, int64(stride))
		b.If(p)
		other := b.Lds(shAddr, int64(stride*4), 4)
		mine := b.Lds(shAddr, 0, 4)
		sum := b.IAdd(mine, other)
		b.Sts(shAddr, sum, 0, 4)
		b.EndIf()
		b.Bar()
	}
	p0 := b.ISetpImm(isa.CmpEQ, tid, 0)
	b.If(p0)
	total := b.Lds(shAddr, 0, 4)
	cta := b.S2R(isa.SRCtaIDX)
	b.Stg(b.IMad(cta, four, out), total, 0, 4)
	b.EndIf()
	b.Exit()
	return b.MustBuild()
}

func TestSharedMemoryReductionWithBarriers(t *testing.T) {
	d := NewDevice(testSpec())
	const blocks, bs = 4, 256
	in := d.Alloc(blocks * bs * 4)
	out := d.Alloc(blocks * 4)
	host := make([]uint32, blocks*bs)
	for i := range host {
		host[i] = uint32(i % 17)
	}
	d.Storage.WriteU32Slice(in, host)
	l := &kernel.Launch{
		Program: buildReduction(),
		Grid:    kernel.Dim3{X: blocks},
		Block:   kernel.Dim3{X: bs},
		Params:  []uint64{in, out},
	}
	res := d.MustLaunch(l)
	got := d.Storage.ReadU32Slice(out, blocks)
	for blk := 0; blk < blocks; blk++ {
		var want uint32
		for i := 0; i < bs; i++ {
			want += host[blk*bs+i]
		}
		if got[blk] != want {
			t.Fatalf("block %d sum = %d, want %d", blk, got[blk], want)
		}
	}
	if res.Counters.WarpStateCycles[sm.StateBarrier] == 0 {
		t.Error("no barrier stall cycles recorded")
	}
	if res.Counters.SharedLoads == 0 || res.Counters.SharedStores == 0 {
		t.Error("shared memory traffic not counted")
	}
}

// buildConflicted: shared-memory accesses with a 32-word stride so all lanes
// hit the same bank.
func buildConflicted() *kernel.Program {
	b := kernel.NewBuilder("conflict")
	sh := b.DeclShared(32 * 32 * 4 * 2)
	tid := b.S2R(isa.SRTidX)
	// addr = sh + tid*32*4 : every lane maps to bank 0.
	addr := b.IMad(tid, b.MovImm(128), b.MovImm(sh))
	b.Sts(addr, tid, 0, 4)
	v := b.Lds(addr, 0, 4)
	b.Sts(addr, v, 4, 4)
	b.Exit()
	return b.MustBuild()
}

func TestSharedBankConflictsCounted(t *testing.T) {
	d := NewDevice(testSpec())
	l := &kernel.Launch{
		Program: buildConflicted(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
		Params:  nil,
	}
	res := d.MustLaunch(l)
	if res.Counters.SharedBankConflicts == 0 {
		t.Error("stride-32 shared accesses produced no bank conflicts")
	}
	if res.Counters.InstIssued <= res.Counters.InstExecuted {
		t.Error("bank-conflict replays did not raise issued above executed")
	}
}

// buildAtomicCount: every thread atomically increments a global counter.
func buildAtomicCount() *kernel.Program {
	b := kernel.NewBuilder("atomic")
	ctr := b.Param(0)
	one := b.MovImm(1)
	old := b.Atom(isa.AtomAdd, ctr, one, 0)
	_ = old
	b.Exit()
	return b.MustBuild()
}

func TestAtomicsSerialiseAndSum(t *testing.T) {
	d := NewDevice(testSpec())
	ctr := d.Alloc(4)
	d.Storage.Write(ctr, 0, 4)
	const total = 512
	l := &kernel.Launch{
		Program: buildAtomicCount(),
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{ctr},
	}
	res := d.MustLaunch(l)
	if got := uint32(d.Storage.Read(ctr, 4)); got != total {
		t.Errorf("atomic counter = %d, want %d", got, total)
	}
	if res.Counters.Atomics == 0 {
		t.Error("atomics not counted")
	}
}

func TestPartialWarpAndExitGuard(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 50 // 2 warps, second partial (18 lanes)
	xs := d.Alloc(64 * 4)
	ys := d.Alloc(64 * 4)
	d.Storage.WriteF32Slice(xs, make([]float32, 64))
	d.Storage.WriteF32Slice(ys, make([]float32, 64))
	l := &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 64},
		Params:  []uint64{xs, ys, n, uint64(float32bits(1))},
	}
	res := d.MustLaunch(l)
	if res.Counters.WarpsLaunched != 2 {
		t.Errorf("warps launched = %d, want 2", res.Counters.WarpsLaunched)
	}
	// Threads 50..63 must exit via the guard without storing.
	if res.Counters.GlobalStores == 0 {
		t.Error("no stores recorded")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() sm.Counters {
		d := NewDevice(testSpec())
		const n = 2048
		xs := d.Alloc(n * 4)
		ys := d.Alloc(n * 4)
		xh := make([]float32, n)
		for i := range xh {
			xh[i] = float32(i%31) * 0.5
		}
		d.Storage.WriteF32Slice(xs, xh)
		d.Storage.WriteF32Slice(ys, xh)
		l := &kernel.Launch{
			Program: buildSaxpy(),
			Grid:    kernel.Dim3{X: n / 128},
			Block:   kernel.Dim3{X: 128},
			Params:  []uint64{xs, ys, n, uint64(float32bits(2))},
		}
		return d.MustLaunch(l).Counters
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestInDeviceReplayAfterFlush(t *testing.T) {
	// The CUPTI replay pattern: same kernel twice on one device with a cache
	// flush and counter reset in between must produce identical counters.
	d := NewDevice(testSpec())
	const n = 2048
	xs := d.Alloc(n * 4)
	ys := d.Alloc(n * 4)
	d.Storage.WriteF32Slice(xs, make([]float32, n))
	d.Storage.WriteF32Slice(ys, make([]float32, n))
	l := &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: n / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{xs, ys, n, uint64(float32bits(0))}, // a=0 keeps y stable
	}
	d.FlushCaches()
	r1 := d.MustLaunch(l)
	d.FlushCaches()
	r2 := d.MustLaunch(l)
	if r1.Counters != r2.Counters {
		t.Errorf("replay after flush diverged:\n%+v\n%+v", r1.Counters, r2.Counters)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("replay cycles %d != %d", r1.Cycles, r2.Cycles)
	}
}

// buildStrided loads with a 128-byte stride (one sector per lane).
func buildStrided() *kernel.Program {
	b := kernel.NewBuilder("strided")
	in := b.Param(0)
	out := b.Param(1)
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(128), in)
	v := b.Ldg(addr, 0, 4)
	oaddr := b.IMad(gid, b.MovImm(4), out)
	b.Stg(oaddr, v, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func TestUncoalescedLoadsReplay(t *testing.T) {
	d := NewDevice(testSpec())
	const n = 256
	in := d.Alloc(n * 128)
	out := d.Alloc(n * 4)
	l := &kernel.Launch{
		Program: buildStrided(),
		Grid:    kernel.Dim3{X: 2},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{in, out},
	}
	res := d.MustLaunch(l)
	if res.Counters.InstIssued <= res.Counters.InstExecuted {
		t.Error("32-sector loads did not produce replays")
	}
	perLoad := float64(res.Counters.LoadSectors) / float64(res.Counters.GlobalLoads)
	if perLoad < 16 {
		t.Errorf("sectors per strided load = %.1f, want ~32", perLoad)
	}
}

func TestConstantPathAndParams(t *testing.T) {
	d := NewDevice(testSpec())
	// Params are read through LDC, so every kernel exercises the IMC.
	out := d.Alloc(4 * 32)
	l := &kernel.Launch{
		Program: buildAtomicCount(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
		Params:  []uint64{out},
	}
	d.Storage.Write(out, 0, 4)
	res := d.MustLaunch(l)
	if res.Counters.ConstLoads == 0 {
		t.Error("param reads did not reach the constant path")
	}
	if res.Counters.IMCMisses == 0 {
		t.Error("cold IMC produced no misses")
	}
}

func TestOccupancyLimitsRespected(t *testing.T) {
	spec := testSpec()
	d := NewDevice(spec)
	// A block using all shared memory: only one resident per SM at a time.
	b := kernel.NewBuilder("shared_hog")
	sh := b.DeclShared(spec.SharedMemPerSM)
	tid := b.S2R(isa.SRTidX)
	addr := b.IMad(tid, b.MovImm(4), b.MovImm(sh))
	b.Sts(addr, tid, 0, 4)
	b.Exit()
	prog := b.MustBuild()
	l := &kernel.Launch{
		Program: prog,
		Grid:    kernel.Dim3{X: 6},
		Block:   kernel.Dim3{X: 64},
	}
	res := d.MustLaunch(l)
	if res.Counters.BlocksLaunched != 6 {
		t.Errorf("blocks launched = %d", res.Counters.BlocksLaunched)
	}
	// With 2 SMs and 1 block resident per SM, at least 3 dispatch rounds:
	// runtime must exceed 2x a single-wave run.
	if res.Cycles < 100 {
		t.Errorf("suspiciously fast shared-hog run: %d cycles", res.Cycles)
	}
}

func TestLocalMemoryRoundtrip(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("localrt")
	b.DeclLocal(64)
	out := b.Param(0)
	gid := b.GlobalIDX()
	zero := b.MovImm(0)
	b.Stl(zero, gid, 0, 4)
	b.Stl(zero, b.IAddImm(gid, 100), 4, 4)
	v0 := b.Ldl(zero, 0, 4)
	v1 := b.Ldl(zero, 4, 4)
	sum := b.IAdd(v0, v1)
	b.Stg(b.IMad(gid, b.MovImm(4), out), sum, 0, 4)
	b.Exit()
	prog := b.MustBuild()
	const n = 128
	out0 := d.Alloc(n * 4)
	l := &kernel.Launch{
		Program: prog,
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: n},
		Params:  []uint64{out0},
	}
	d.MustLaunch(l)
	got := d.Storage.ReadU32Slice(out0, n)
	for i := range got {
		if got[i] != uint32(2*i+100) {
			t.Fatalf("local roundtrip out[%d] = %d, want %d", i, got[i], 2*i+100)
		}
	}
}

func TestNanosleepCountsSleeping(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("sleepy")
	b.Nanosleep(200)
	b.Exit()
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
	res := d.MustLaunch(l)
	if res.Counters.WarpStateCycles[sm.StateSleeping] < 150 {
		t.Errorf("sleeping cycles = %d, want >= 150", res.Counters.WarpStateCycles[sm.StateSleeping])
	}
}

func TestMembarWaitsForStores(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("membar")
	out := b.Param(0)
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), out)
	b.Stg(addr, gid, 0, 4)
	b.Membar()
	v := b.Ldg(addr, 0, 4)
	b.Stg(addr, b.IAddImm(v, 1), 0, 4)
	b.Exit()
	out0 := d.Alloc(128 * 4)
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 128}, Params: []uint64{out0}}
	res := d.MustLaunch(l)
	if res.Counters.WarpStateCycles[sm.StateMembar] == 0 {
		t.Error("membar produced no membar stalls")
	}
	got := d.Storage.ReadU32Slice(out0, 128)
	for i := range got {
		if got[i] != uint32(i+1) {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], i+1)
		}
	}
}

func TestFP64PipeThrottles(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("fp64heavy")
	out := b.Param(0)
	gid := b.GlobalIDX()
	x := b.DConst(1.5)
	acc := b.DConst(0)
	for i := 0; i < 16; i++ {
		nv := b.DFma(acc, x, x)
		b.MovTo(acc, nv)
	}
	b.Stg(b.IMad(gid, b.MovImm(8), out), acc, 0, 8)
	b.Exit()
	out0 := d.Alloc(512 * 8)
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 4}, Block: kernel.Dim3{X: 128}, Params: []uint64{out0}}
	res := d.MustLaunch(l)
	if res.Counters.WarpStateCycles[sm.StateMathPipeThrottle] == 0 {
		t.Error("FP64-heavy kernel produced no math-pipe throttling")
	}
}

func TestICacheMissesCounted(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("bigprog")
	out := b.Param(0)
	gid := b.GlobalIDX()
	acc := b.MovImm(0)
	for i := 0; i < 200; i++ {
		v := b.IAddImm(gid, int64(i))
		b.MovTo(acc, v)
	}
	b.Stg(b.IMad(gid, b.MovImm(4), out), acc, 0, 4)
	b.Exit()
	out0 := d.Alloc(64 * 4)
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 64}, Params: []uint64{out0}}
	res := d.MustLaunch(l)
	if res.Counters.ICacheMisses == 0 {
		t.Error("long program produced no icache misses")
	}
	if res.Counters.WarpStateCycles[sm.StateNoInstruction] == 0 {
		t.Error("no no_instruction stalls recorded")
	}
}

func TestShuffleReduction(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("shfl")
	out := b.Param(0)
	lane := b.S2R(isa.SRLaneID)
	v := b.Mov(lane)
	for delta := 16; delta >= 1; delta /= 2 {
		o := b.ShflXor(v, int64(delta))
		nv := b.IAdd(v, o)
		b.MovTo(v, nv)
	}
	p := b.ISetpImm(isa.CmpEQ, lane, 0)
	b.StgIf(p, false, out, v, 0, 4)
	b.Exit()
	out0 := d.Alloc(4)
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}, Params: []uint64{out0}}
	d.MustLaunch(l)
	if got := uint32(d.Storage.Read(out0, 4)); got != 496 { // sum 0..31
		t.Errorf("warp shuffle reduction = %d, want 496", got)
	}
}

func TestBallotVote(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("ballot")
	out := b.Param(0)
	lane := b.S2R(isa.SRLaneID)
	p := b.ISetpImm(isa.CmpLT, lane, 8)
	mask := b.Ballot(p)
	p0 := b.ISetpImm(isa.CmpEQ, lane, 0)
	b.StgIf(p0, false, out, mask, 0, 8)
	b.Exit()
	out0 := d.Alloc(8)
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}, Params: []uint64{out0}}
	d.MustLaunch(l)
	if got := d.Storage.Read(out0, 8); got != 0xFF {
		t.Errorf("ballot = %#x, want 0xff", got)
	}
}

func TestLaunchValidation(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Launch(&kernel.Launch{}); err == nil {
		t.Error("empty launch accepted")
	}
}

func TestRunResultSeconds(t *testing.T) {
	spec := testSpec()
	r := &RunResult{Cycles: uint64(spec.ClockMHz) * 1e6}
	if got := r.Seconds(spec); got < 0.999 || got > 1.001 {
		t.Errorf("Seconds = %g, want 1.0", got)
	}
}

// TestSetObserverNilRegistry is the regression test for the nil-registry
// path: tracer-only hooks must work exactly like tracer-plus-registry hooks
// minus the metrics, registry-only hooks must count launches, and nil hooks
// must detach both without breaking subsequent launches.
func TestSetObserverNilRegistry(t *testing.T) {
	d := NewDevice(testSpec())
	l := saxpyLaunch(d, 1024)

	// Tracer only: spans recorded, no metric handles, no panic.
	tr := obs.NewTracer()
	d.SetHooks(obs.NewHooks(tr, nil, nil))
	d.MustLaunch(l)
	var spans int
	for _, e := range tr.Events() {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("tracer-only observer recorded no spans")
	}

	// Registry only: launches counted, previous tracer fully detached.
	reg := obs.NewRegistry()
	d.SetHooks(obs.NewHooks(nil, reg, nil))
	before := len(tr.Events())
	d.MustLaunch(l)
	if got := len(tr.Events()); got != before {
		t.Errorf("detached tracer still accumulated events: %d -> %d", before, got)
	}
	if got := reg.Counter("sim_launches_total", "", nil).Value(); got != 1 {
		t.Errorf("sim_launches_total = %v, want 1", got)
	}

	// Detach both: launches keep working, counters freeze.
	d.SetHooks(nil)
	d.MustLaunch(l)
	if got := reg.Counter("sim_launches_total", "", nil).Value(); got != 1 {
		t.Errorf("detached registry still counting: %v", got)
	}
}

// TestLaunchPrologueAllocFree gates the reusable-scratch prologue: once a
// device has run a launch, readying it for the next one (constant-bank
// params, IMC flush, local-memory carve-out, per-SM reset and counter
// snapshots) must allocate nothing.
func TestLaunchPrologueAllocFree(t *testing.T) {
	d := NewDevice(testSpec())
	l := saxpyLaunch(d, 1024)
	d.MustLaunch(l) // size every reusable buffer
	allocs := testing.AllocsPerRun(50, func() {
		markMem, err := d.launchPrologue(l, len(d.SMs))
		if err != nil {
			t.Fatal(err)
		}
		d.Storage.Release(markMem)
	})
	if allocs != 0 {
		t.Errorf("launch prologue allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkLaunchPrologue measures the per-launch fixed cost in isolation;
// its allocs/op column is the number the alloc-free gate pins at zero.
func BenchmarkLaunchPrologue(b *testing.B) {
	d := NewDevice(testSpec())
	l := saxpyLaunch(d, 1024)
	d.MustLaunch(l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markMem, err := d.launchPrologue(l, len(d.SMs))
		if err != nil {
			b.Fatal(err)
		}
		d.Storage.Release(markMem)
	}
}

// TestDeviceBuildAllocs is the allocation gate on device construction, which
// every ProfileApp call and every daemon job pays once: sim.NewDeviceMem must
// not allocate more often than it did before the SM's wake table existed
// (the ceilings are this test's readings at e2075b5; with one backing per SM
// for each slot table the count fell to 592 and 940 — see
// docs/history/per-pr-ledgers.md "A tick costs what changes in it").
func TestDeviceBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		spec    *gpu.Spec
		ceiling float64
	}{{gpu.GTX1070(), 712}, {gpu.QuadroRTX4000(), 1047}} {
		got := testing.AllocsPerRun(5, func() { NewDeviceMem(c.spec, DefaultMemBytes) })
		t.Logf("%s: %v mallocs per device build", c.spec.Name, got)
		if got > c.ceiling {
			t.Errorf("%s: NewDeviceMem allocates %v times, ceiling %v", c.spec.Name, got, c.ceiling)
		}
	}
}
