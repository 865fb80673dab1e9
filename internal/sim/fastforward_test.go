package sim

import (
	"reflect"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// memBoundLaunch builds a launch dominated by serialized global loads —
// the workload class whose stall windows the fast-forward engine skips.
func memBoundLaunch(d *Device, blocks, sharedBytes int) *kernel.Launch {
	b := kernel.NewBuilder("memchain")
	gid := b.GlobalIDX()
	buf := b.Param(0)
	addr := b.IMad(b.AndImm(gid, 1023), b.MovImm(4), buf)
	acc := b.MovImm(0)
	for i := 0; i < 3; i++ {
		v := b.Ldg(addr, int64(i*4096), 4)
		acc = b.IAdd(acc, v)
	}
	b.Stg(addr, acc, 0, 4)
	b.Exit()
	prog := b.MustBuild()
	prog.SharedBytes = sharedBytes
	mem := d.Alloc(64 * 1024)
	return &kernel.Launch{
		Program: prog,
		Grid:    kernel.Dim3{X: blocks},
		Block:   kernel.Dim3{X: 64},
		Params:  []uint64{mem},
	}
}

// TestFastForwardRetireMidSkipDispatch pins the dispatch interaction: each
// block's shared-memory footprint fills an SM, so pending blocks can only
// dispatch when a resident block retires — an event that must collapse the
// fast-forward bound so the dispatcher runs at the exact retire cycle. The
// whole run (cycles, counters, per-SM deltas) must match the reference's.
func TestFastForwardRetireMidSkipDispatch(t *testing.T) {
	run := func(ff bool) *RunResult {
		d := NewDevice(testSpec())
		d.SetReference(!ff)
		// One block per SM at a time: 2 SMs, 8 blocks → 4 serialized waves.
		return d.MustLaunch(memBoundLaunch(d, 8, d.Spec.SharedMemPerSM))
	}
	naive, fast := run(false), run(true)
	if !reflect.DeepEqual(naive, fast) {
		t.Fatalf("serialized-dispatch run diverges:\nnaive: cycles=%d %+v\nff:    cycles=%d %+v",
			naive.Cycles, naive.Counters, fast.Cycles, fast.Counters)
	}
	if naive.Blocks != 8 || naive.SMsUsed != 2 {
		t.Fatalf("unexpected shape: blocks=%d smsUsed=%d", naive.Blocks, naive.SMsUsed)
	}
}

// ticketLaunch builds a launch whose shared-memory traffic depends on the
// order the SMs tick in: every warp takes rounds tickets from one global
// counter (ATOM.ADD, so which warp gets which ticket is decided by who reaches
// L2 first), and each ticket picks the line its next load reads, a hit or a
// DRAM miss depending on who touched it before. Odd blocks first spin skew
// ALU instructions, shifting their SM's loads against the other's by a few
// cycles.
func ticketLaunch(d *Device, skew, rounds, blocks, threads int) *kernel.Launch {
	b := kernel.NewBuilder("ticket")
	buf, counter := b.Param(0), b.Param(1)
	tid := b.S2R(isa.SRTidX)
	acc := b.MovImm(0)
	b.If(b.ISetpImm(isa.CmpEQ, b.AndImm(b.S2R(isa.SRCtaIDX), 1), 1))
	for i := 0; i < skew; i++ {
		acc = b.IAddImm(acc, 1)
	}
	b.EndIf()
	dep := b.AndImm(acc, 0) // zero, but makes the next ticket wait on the last load
	for i := 0; i < rounds; i++ {
		ticket := b.Atom(isa.AtomAdd, b.IAdd(counter, dep), b.MovImm(1), 0)
		line := b.AndImm(b.IMulImm(b.IAdd(ticket, tid), 97), 4095)
		dep = b.AndImm(b.Ldg(b.IMad(line, b.MovImm(32), buf), 0, 4), 0)
	}
	b.Stg(b.IMad(tid, b.MovImm(4), buf), dep, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: blocks},
		Block:   kernel.Dim3{X: threads},
		Params:  []uint64{d.Alloc(4096 * 32), d.Alloc(64)},
	}
}

// TestFastForwardJumpLandsOnTheWakeup: when every busy SM is parked, the
// fast-forward loop jumps the device cycle to the earliest wakeup, not past
// it. Jumping one cycle too far ticks a later-waking SM before an
// earlier-waking one of a higher id, which reorders their atomics and loads
// at L2 and DRAM. The skews slide the two SMs' wakeups against each other a
// cycle at a time, so some land on one cycle and some one cycle apart; for
// each, the whole RunResult must match the reference's.
func TestFastForwardJumpLandsOnTheWakeup(t *testing.T) {
	for skew := 0; skew < 16; skew++ {
		for _, threads := range []int{32, 64} {
			run := func(ff bool) *RunResult {
				d := NewDevice(testSpec())
				d.SetReference(!ff)
				return d.MustLaunch(ticketLaunch(d, skew, 12, 8, threads))
			}
			naive, fast := run(false), run(true)
			if !reflect.DeepEqual(naive, fast) {
				t.Errorf("skew %d, %d threads: naive/ff diverge: cycles %d vs %d\nnaive: %+v\nff:    %+v",
					skew, threads, naive.Cycles, fast.Cycles, naive.Counters, fast.Counters)
			}
		}
	}
}

// TestReferenceDefaultOff pins the default: a new device and its clone are
// production devices; the clone of a reference device and a reference device
// recovered by ResetSMs are reference devices, down to their SMs' engines;
// Reset makes a production device again.
func TestReferenceDefaultOff(t *testing.T) {
	d := NewDevice(testSpec())
	if isReference(t, d) || isReference(t, d.Clone()) {
		t.Error("a new device or its clone is a reference device")
	}
	d.SetReference(true)
	if !isReference(t, d.Clone()) {
		t.Error("the clone of a reference device is a production device")
	}
	d.ResetSMs()
	if !isReference(t, d) {
		t.Error("ResetSMs made a reference device a production device")
	}
	d.Reset()
	if isReference(t, d) {
		t.Error("a reset device is a reference device")
	}
}

// isReference reports whether d is a reference device, failing the test
// unless every SM's engine agrees.
func isReference(t *testing.T, d *Device) bool {
	t.Helper()
	for i, s := range d.SMs {
		if reflect.ValueOf(s).Elem().FieldByName("noWakeList").Bool() != d.reference {
			t.Fatalf("SM %d's engine disagrees with the device's reference mode %v", i, d.reference)
		}
	}
	return d.reference
}

// ffmaChainLaunch is one warp running a dependent chain of 64 FFMAs: every
// instruction waits out its predecessor's latency, and the warp's next
// instruction is always in the line its buffer holds.
func ffmaChainLaunch(d *Device) *kernel.Launch {
	b := kernel.NewBuilder("ffmachain")
	gid := b.GlobalIDX()
	x := b.I2F(gid)
	acc := b.Mov(x)
	for i := 0; i < 64; i++ {
		b.MovTo(acc, b.FFma(acc, x, x))
	}
	b.Stg(b.IAdd(b.Param(0), b.Shl(gid, 2)), acc, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
		Params:  []uint64{d.Alloc(32 * 4)},
	}
}

// tinyStreamLaunch is shaped like a launch of rodinia/gaussian's Fan2: four
// blocks of 128 threads, each loading a word, running three dependent FFMAs
// on it and storing the result.
func tinyStreamLaunch(d *Device) *kernel.Launch {
	const n = 4 * 128
	b := kernel.NewBuilder("tinystream")
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, b.Param(2)), false)
	off := b.Shl(gid, 2)
	x := b.Ldg(b.IAdd(b.Param(0), off), 0, 4)
	c := b.FConst(1.0009765625)
	acc := b.Mov(x)
	for i := 0; i < 3; i++ {
		b.MovTo(acc, b.FFma(acc, c, x))
	}
	b.Stg(b.IAdd(b.Param(1), off), acc, 0, 4)
	b.Exit()
	buf := d.Alloc(n * 4)
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{buf, buf, n},
	}
}

// TestSettledIssueIsQuiet: a tick whose issued warps all settled at a real
// bound, with no warp left ready or due, is quiet, so the loop skips to the
// next bound instead of ticking the cycle after every issue. Each launch
// runs after a cache flush on a full RTX 4000, as a profiled launch does;
// its tick count is pinned below what it took when every issue forced the
// next tick (settled), and its RunResult must equal the reference's.
func TestSettledIssueIsQuiet(t *testing.T) {
	for _, c := range []struct {
		name           string
		build          func(*Device) *kernel.Launch
		ticks, settled uint64
	}{
		{"ffma chain", ffmaChainLaunch, 226, 342},
		{"tiny stream", tinyStreamLaunch, 424, 548},
	} {
		run := func(ff bool) (*RunResult, uint64) {
			d := NewDevice(gpu.QuadroRTX4000())
			d.SetReference(!ff)
			l := c.build(d)
			d.FlushCaches()
			return d.MustLaunch(l), d.LastLaunchTicks()
		}
		naive, _ := run(false)
		fast, ticks := run(true)
		if !reflect.DeepEqual(naive, fast) {
			t.Errorf("%s: naive/ff diverge: cycles %d vs %d\nnaive: %+v\nff:    %+v",
				c.name, naive.Cycles, fast.Cycles, naive.Counters, fast.Counters)
		}
		if ticks != c.ticks || ticks >= c.settled {
			t.Errorf("%s: %d ticks, want %d (every issue forcing the next tick: %d)", c.name, ticks, c.ticks, c.settled)
		}
	}
}
