package sm

import (
	"fmt"
	"math/bits"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

func oneWarp(p *kernel.Program) *kernel.Launch {
	return &kernel.Launch{Program: p, Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}}
}

// TestThrottledSleeperIsChargedDispatchStall is the case the wake table used
// to get wrong: a ready warp parked behind a busy pipe while another warp's
// issue holds the dispatch unit for more than one cycle. classify tests the
// dispatch unit first, so that cycle is a dispatch stall, not a pipe throttle;
// a table entry "MathPipeThrottle until pipeFree" slept through it.
//
// One subpartition of an RTX 4000 (fetch 1 line/cycle, decode 2, L2 188 so an
// icache miss costs 94+2; SFU 4 lanes, so a MUFU holds the pipe 8 cycles; a
// DFMA holds the dispatch unit 2). The sleeper is resident from cycle 0, the
// issuer arrives at cycle 97. Every count below is read off this timeline:
//
//	cycle    sleeper (MUFU, MUFU, EXIT)          issuer (DFMA, EXIT)
//	0-95     no_instruction (line 0 misses)
//	96       selected: MUFU, SFU busy to 104
//	97-98    math_pipe_throttle                  no_instruction (line 0 hits, decode)
//	99       math_pipe_throttle                  selected: DFMA, dispatch busy to 101
//	100      dispatch_stall                      dispatch_stall
//	101      math_pipe_throttle                  selected: EXIT
//	102      math_pipe_throttle                  drain, reaped
//	103      math_pipe_throttle
//	104-105  selected: MUFU, EXIT
//	106      drain, reaped
func TestThrottledSleeperIsChargedDispatchStall(t *testing.T) {
	spec := *gpu.QuadroRTX4000().WithSMs(1)
	spec.SubpartitionsPerSM = 1

	b := kernel.NewBuilder("sleeper")
	x := b.Reg()
	b.Mufu(isa.MufuRCP, x)
	b.Mufu(isa.MufuRCP, x) // independent of the first: waits for the pipe only
	b.Exit()
	sleeper := oneWarp(b.MustBuild())

	b = kernel.NewBuilder("issuer")
	b.DFma(b.Reg(), b.Reg(), b.Reg()) // three register banks: no operand-collector delay
	b.Exit()
	issuer := oneWarp(b.MustBuild())

	var want [NumWarpStates]uint64
	want[StateNoInstruction] = 96 + 2
	want[StateSelected] = 3 + 2
	want[StateMathPipeThrottle] = 6
	want[StateDispatchStall] = 1 + 1
	want[StateDrain] = 1 + 1

	for _, cfg := range []struct {
		name          string
		reference, ff bool
	}{{"production", false, false}, {"production fast-forward", false, true}, {"reference", true, false}} {
		s := testSMOf(&spec)
		s.noWakeList = cfg.reference
		s.LaunchBlock(sleeper, [3]int64{}, 0)
		for guard := 0; s.Busy() || s.Cycle() <= 97; guard++ {
			if guard > 1000 {
				t.Fatalf("%s: SM did not go idle", cfg.name)
			}
			if s.Cycle() == 97 {
				s.LaunchBlock(issuer, [3]int64{}, 0)
			}
			s.Tick()
			if target := s.NextWakeup(); cfg.ff {
				if s.Cycle() < 97 {
					target = min(target, 97) // stop where the issuer arrives
				}
				s.AdvanceTo(target)
			}
		}
		c := s.Counters()
		if c.WarpStateCycles != want {
			t.Errorf("%s:\ngot:  %v\nwant: %v", cfg.name, c.WarpStateCycles, want)
		}
		if s.Cycle() != 107 || c.ActiveWarpCycles != 107+6 {
			t.Errorf("%s: idle at cycle %d with %d warp-cycles, want 107 and 113", cfg.name, s.Cycle(), c.ActiveWarpCycles)
		}
	}
}

// mufuPerLane is execMUFU as it was before it memoised runs of equal operands:
// one evaluation per active lane.
func mufuPerLane(dst, src *[32]uint64, fn isa.MufuFunc, mask uint32) {
	f := func(float64) float64 { return 0 }
	if int(fn) < len(mufuFuncs) {
		f = mufuFuncs[fn]
	}
	for ; mask != 0; mask &= mask - 1 {
		lane := bits.TrailingZeros32(mask) & 31
		dst[lane] = f32bits(float32(f(float64(f32val(src[lane])))))
	}
}

// TestMUFURunsMatchPerLane holds the run-memoised execMUFU to the per-lane
// loop, bit for bit, for every function (and one unknown) over operand rows
// that make runs of every shape — uniform, alternating, runs broken by
// inactive lanes — and over the values where "equal" is delicate: ±0 differ in
// bits and in 1/x, NaNs with distinct payloads are distinct operands, and only
// the low 32 bits of a register are the operand. Inactive lanes keep what they
// held, also when the destination is the source.
func TestMUFURunsMatchPerLane(t *testing.T) {
	special := []uint64{f32PosZero, f32NegZero, f32PosInf, f32NegInf, f32MinDenom, 0x807FFFFF,
		f32NaN, 0x7FC00001, 0xFFC00000, 0x7F800001, f32One, 0xBF800000, f32Two, 0x40490FDB}
	rows := map[string][32]uint64{}
	var row [32]uint64
	for _, v := range special {
		fill(&row, v)
		rows[fmt.Sprintf("uniform %#x", v)] = row
	}
	for i := range special {
		for l := range row {
			row[l] = special[(i+l%2)%len(special)]
		}
		rows[fmt.Sprintf("alternating from %d", i)] = row
	}
	for l := range row {
		row[l] = special[l/3%len(special)] // runs of three
	}
	rows["runs of three"] = row
	for l := range row {
		row[l] = uint64(l)<<32 | f32Two // same operand under different high words
	}
	rows["high words differ"] = row
	for l := range row {
		row[l] = f32bits(float32(l) * 0.37)
	}
	rows["all distinct"] = row

	masks := []uint32{0xFFFFFFFF, 0, 1, 0x80000000, 0x0000FFFF, 0xAAAAAAAA, 0x00FF00F0, 0xDEADBEEF}
	for fn := isa.MufuFunc(0); int(fn) <= len(mufuFuncs); fn++ {
		for name, src := range rows {
			for _, mask := range masks {
				var got, want [32]uint64
				for l := range got {
					got[l] = 0xA5A5A5A5_00000000 | uint64(l)
				}
				want = got
				execMUFU(&got, &src, fn, mask)
				mufuPerLane(&want, &src, fn, mask)
				if got != want {
					t.Fatalf("MUFU %d, %s, mask %#x:\ngot:  %x\nwant: %x", fn, name, mask, got, want)
				}
				// In place: acc = f(acc).
				got, want = src, src
				execMUFU(&got, &got, fn, mask)
				mufuPerLane(&want, &want, fn, mask)
				if got != want {
					t.Fatalf("MUFU %d in place, %s, mask %#x:\ngot:  %x\nwant: %x", fn, name, mask, got, want)
				}
			}
		}
	}
}

var mufuSink [32]uint64

func benchMUFU(b *testing.B, src *[32]uint64) {
	for i := 0; i < b.N; i++ {
		execMUFU(&mufuSink, src, isa.MufuSIN, 0xFFFFFFFF)
	}
}

// BenchmarkMUFUUniform is a full-warp MUFU.SIN on a warp-uniform operand (the
// shoc/s3d regime): one evaluation.
func BenchmarkMUFUUniform(b *testing.B) {
	var src [32]uint64
	fill(&src, f32bits(1.25))
	benchMUFU(b, &src)
}

// BenchmarkMUFUDistinct is the same on 32 different operands: 32 evaluations,
// and the compare that finds no run.
func BenchmarkMUFUDistinct(b *testing.B) {
	var src [32]uint64
	for l := range src {
		src[l] = f32bits(float32(l) * 0.37)
	}
	benchMUFU(b, &src)
}

// contendedLaunch puts 8 warps on every subpartition of an RTX 4000, each
// running a loop of independent MUFUs: after the first iterations all of them
// are ready at once behind the one SFU pipe, which admits a warp every 8
// cycles.
func contendedLaunch() *kernel.Launch {
	b := kernel.NewBuilder("contended")
	x := b.I2F(b.GlobalIDX())
	b.ForImm(0, 400, 1)
	b.Mufu(isa.MufuRCP, x)
	b.Mufu(isa.MufuRSQ, x)
	b.EndFor()
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 512},
	}
}

// BenchmarkTickContended measures the per-cycle cost of ready warps that
// cannot issue: 8 per subpartition behind one busy pipe. The scheduler decides
// the gate once per tick, not once per warp.
func BenchmarkTickContended(b *testing.B) {
	benchTickLoop(b, testSMBacked(), contendedLaunch(), 1)
}
