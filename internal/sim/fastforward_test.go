package sim

import (
	"reflect"
	"testing"

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
// whole run (cycles, counters, per-SM deltas) must match the naive loop.
func TestFastForwardRetireMidSkipDispatch(t *testing.T) {
	run := func(ff bool) *RunResult {
		d := NewDevice(testSpec())
		d.SetFastForward(ff)
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
// each, the whole RunResult must match the naive loop's.
func TestFastForwardJumpLandsOnTheWakeup(t *testing.T) {
	for skew := 0; skew < 16; skew++ {
		for _, threads := range []int{32, 64} {
			run := func(ff bool) *RunResult {
				d := NewDevice(testSpec())
				d.SetFastForward(ff)
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

// TestFastForwardDefaultOn pins the default: new devices and their clones
// run the fast-forward engine unless explicitly disabled.
func TestFastForwardDefaultOn(t *testing.T) {
	d := NewDevice(testSpec())
	if !d.FastForwardEnabled() {
		t.Error("new device does not default to fast-forward")
	}
	if !d.Clone().FastForwardEnabled() {
		t.Error("clone lost the fast-forward flag")
	}
	d.SetFastForward(false)
	if d.Clone().FastForwardEnabled() {
		t.Error("clone of a naive-mode device re-enabled fast-forward")
	}
}
