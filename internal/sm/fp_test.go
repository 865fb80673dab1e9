package sm

import (
	"math"
	"testing"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// Bit patterns used by the edge-case table.
const (
	f32PosZero  = 0x00000000
	f32NegZero  = 0x80000000
	f32One      = 0x3F800000
	f32Two      = 0x40000000
	f32Half     = 0x3F000000
	f32PosInf   = 0x7F800000
	f32NegInf   = 0xFF800000
	f32NaN      = 0x7FC00000
	f32MinDenom = 0x00000001 // 2^-149
	f32Two63    = 0x5F000000 // 2^63

	f64PosZero  = 0x0000000000000000
	f64NegZero  = 0x8000000000000000
	f64One      = 0x3FF0000000000000
	f64Two      = 0x4000000000000000
	f64Half     = 0x3FE0000000000000
	f64PosInf   = 0x7FF0000000000000
	f64NegInf   = 0xFFF0000000000000
	f64NaN      = 0x7FF8000000000001
	f64MinDenom = 0x0000000000000001

	minInt64Bits = 0x8000000000000000
)

// fpCase is one instruction on one operand triple. want is the destination's
// bit pattern (for SETP: 1 when the predicate holds, 0 when not). nan32/nan64
// replace want when the result is a NaN: its sign and payload come from the
// host FPU, so only NaN-ness at the op's width is pinned.
type fpCase struct {
	name         string
	in           isa.Instr // Op plus Cmp, Mufu and Imm; registers are filled in by the test
	a, b, c      uint64
	immB         bool // operand B is in.Imm (Srcs[1] = RZ), not register b
	want         uint64
	nan32, nan64 bool
}

func alu(op isa.Op) isa.Instr               { return isa.Instr{Op: op} }
func mufu(f isa.MufuFunc) isa.Instr         { return isa.Instr{Op: isa.OpMUFU, Mufu: f} }
func setp(op isa.Op, c isa.CmpOp) isa.Instr { return isa.Instr{Op: op, Cmp: c} }

var fpCases = []fpCase{
	// FADD / FMUL: signed zeros, invalid operations, no flush-to-zero.
	{name: "FADD +0 + -0", in: alu(isa.OpFADD), a: f32PosZero, b: f32NegZero, want: f32PosZero},
	{name: "FADD -0 + -0", in: alu(isa.OpFADD), a: f32NegZero, b: f32NegZero, want: f32NegZero},
	{name: "FADD inf + -inf", in: alu(isa.OpFADD), a: f32PosInf, b: f32NegInf, nan32: true},
	{name: "FADD NaN + 1", in: alu(isa.OpFADD), a: f32NaN, b: f32One, nan32: true},
	{name: "FADD denormals add exactly", in: alu(isa.OpFADD), a: f32MinDenom, b: f32MinDenom, want: 0x00000002},
	{name: "FADD immediate B", in: isa.Instr{Op: isa.OpFADD, Imm: f32Two}, a: f32One, immB: true, want: 0x40400000},
	{name: "FMUL inf * 0", in: alu(isa.OpFMUL), a: f32PosInf, b: f32PosZero, nan32: true},
	{name: "FMUL -0 * 2", in: alu(isa.OpFMUL), a: f32NegZero, b: f32Two, want: f32NegZero},
	{name: "FMUL 3*2^-149 * 0.5 ties to even", in: alu(isa.OpFMUL), a: 0x00000003, b: f32Half, want: 0x00000002},
	{name: "FMUL 2^-149 * 0.5 underflows to +0", in: alu(isa.OpFMUL), a: f32MinDenom, b: f32Half, want: f32PosZero},
	{name: "FMUL overflow", in: alu(isa.OpFMUL), a: 0x7F7FFFFF, b: f32Two, want: f32PosInf},

	// FFMA / DFMA are unfused: the product is rounded before the add. With
	// a = 1+2^-12 the exact a*a = 1+2^-11+2^-24 rounds to 1+2^-11, so adding
	// -(1+2^-11) gives +0; a fused multiply-add would give 2^-24.
	{name: "FFMA rounds the product", in: alu(isa.OpFFMA), a: 0x3F800800, b: 0x3F800800, c: 0xBF801000, want: f32PosZero},
	{name: "FFMA inf * 0 + 1", in: alu(isa.OpFFMA), a: f32PosInf, b: f32PosZero, c: f32One, nan32: true},
	{name: "FFMA -0 * 1 + -0", in: alu(isa.OpFFMA), a: f32NegZero, b: f32One, c: f32NegZero, want: f32NegZero},
	// a = 1+2^-27: a*a = 1+2^-26+2^-54 rounds to 1+2^-26; fused would leave 2^-54.
	{name: "DFMA rounds the product", in: alu(isa.OpDFMA), a: 0x3FF0000002000000, b: 0x3FF0000002000000, c: 0xBFF0000004000000, want: f64PosZero},
	{name: "DFMA inf * 0 + 1", in: alu(isa.OpDFMA), a: f64PosInf, b: f64PosZero, c: f64One, nan64: true},

	// FMIN / FMAX follow math.Min/Max: -0 < +0, and NaN wins except against
	// the infinity on the operation's own side.
	{name: "FMIN -0, +0", in: alu(isa.OpFMIN), a: f32NegZero, b: f32PosZero, want: f32NegZero},
	{name: "FMIN +0, -0", in: alu(isa.OpFMIN), a: f32PosZero, b: f32NegZero, want: f32NegZero},
	{name: "FMAX -0, +0", in: alu(isa.OpFMAX), a: f32NegZero, b: f32PosZero, want: f32PosZero},
	{name: "FMIN NaN, 1", in: alu(isa.OpFMIN), a: f32NaN, b: f32One, nan32: true},
	{name: "FMIN 1, NaN", in: alu(isa.OpFMIN), a: f32One, b: f32NaN, nan32: true},
	{name: "FMAX NaN, -inf", in: alu(isa.OpFMAX), a: f32NaN, b: f32NegInf, nan32: true},
	{name: "FMAX NaN, +inf", in: alu(isa.OpFMAX), a: f32NaN, b: f32PosInf, want: f32PosInf},
	{name: "FMIN -inf, NaN", in: alu(isa.OpFMIN), a: f32NegInf, b: f32NaN, want: f32NegInf},
	{name: "FMIN -inf, 1", in: alu(isa.OpFMIN), a: f32NegInf, b: f32One, want: f32NegInf},
	{name: "FMAX denormal, +0", in: alu(isa.OpFMAX), a: f32MinDenom, b: f32PosZero, want: f32MinDenom},
	{name: "FMAX immediate B", in: isa.Instr{Op: isa.OpFMAX, Imm: f32Two}, a: f32One, immB: true, want: f32Two},

	// I2F rounds to nearest even; F2I truncates, and everything outside int64
	// (NaN included) is math.MinInt64.
	{name: "I2F MaxInt64 rounds up to 2^63", in: alu(isa.OpI2F), a: math.MaxInt64, want: f32Two63},
	{name: "I2F -1", in: alu(isa.OpI2F), a: 0xFFFFFFFFFFFFFFFF, want: 0xBF800000},
	{name: "I2F 2^24+1 ties to even", in: alu(isa.OpI2F), a: 1<<24 + 1, want: 0x4B800000},
	{name: "F2I 1.9", in: alu(isa.OpF2I), a: 0x3FF33333, want: 1},
	{name: "F2I -1.9", in: alu(isa.OpF2I), a: 0xBFF33333, want: 0xFFFFFFFFFFFFFFFF},
	{name: "F2I -0", in: alu(isa.OpF2I), a: f32NegZero, want: 0},
	{name: "F2I denormal", in: alu(isa.OpF2I), a: f32MinDenom, want: 0},
	{name: "F2I largest below 2^63", in: alu(isa.OpF2I), a: 0x5EFFFFFF, want: 0x7FFFFF8000000000},
	{name: "F2I 2^63", in: alu(isa.OpF2I), a: f32Two63, want: minInt64Bits},
	{name: "F2I -2^63", in: alu(isa.OpF2I), a: 0xDF000000, want: minInt64Bits},
	{name: "F2I below -2^63", in: alu(isa.OpF2I), a: 0xDF000001, want: minInt64Bits},
	{name: "F2I +inf", in: alu(isa.OpF2I), a: f32PosInf, want: minInt64Bits},
	{name: "F2I -inf", in: alu(isa.OpF2I), a: f32NegInf, want: minInt64Bits},
	{name: "F2I NaN", in: alu(isa.OpF2I), a: f32NaN, want: minInt64Bits},

	// FP64 add and multiply.
	{name: "DADD +0 + -0", in: alu(isa.OpDADD), a: f64PosZero, b: f64NegZero, want: f64PosZero},
	{name: "DADD inf + -inf", in: alu(isa.OpDADD), a: f64PosInf, b: f64NegInf, nan64: true},
	{name: "DADD 2^53 + 1 ties to even", in: alu(isa.OpDADD), a: 0x4340000000000000, b: f64One, want: 0x4340000000000000},
	{name: "DADD denormals add exactly", in: alu(isa.OpDADD), a: f64MinDenom, b: f64MinDenom, want: 0x0000000000000002},
	{name: "DADD immediate B", in: isa.Instr{Op: isa.OpDADD, Imm: f64Two}, a: f64One, immB: true, want: 0x4008000000000000},
	{name: "DMUL inf * 0", in: alu(isa.OpDMUL), a: f64PosInf, b: f64PosZero, nan64: true},
	{name: "DMUL -0 * 2", in: alu(isa.OpDMUL), a: f64NegZero, b: f64Two, want: f64NegZero},
	{name: "DMUL 2^-1074 * 0.5 underflows to +0", in: alu(isa.OpDMUL), a: f64MinDenom, b: f64Half, want: f64PosZero},
	{name: "DMUL NaN * 1", in: alu(isa.OpDMUL), a: f64NaN, b: f64One, nan64: true},

	// MUFU: float64 evaluation, one rounding to float32.
	{name: "RCP +0", in: mufu(isa.MufuRCP), a: f32PosZero, want: f32PosInf},
	{name: "RCP -0", in: mufu(isa.MufuRCP), a: f32NegZero, want: f32NegInf},
	{name: "RCP -inf", in: mufu(isa.MufuRCP), a: f32NegInf, want: f32NegZero},
	{name: "RCP denormal overflows", in: mufu(isa.MufuRCP), a: f32MinDenom, want: f32PosInf},
	{name: "RCP 3", in: mufu(isa.MufuRCP), a: 0x40400000, want: 0x3EAAAAAB},
	{name: "RCP largest finite is denormal", in: mufu(isa.MufuRCP), a: 0x7F7FFFFF, want: 0x00200000},
	{name: "RCP NaN", in: mufu(isa.MufuRCP), a: f32NaN, nan32: true},
	{name: "RSQ +0", in: mufu(isa.MufuRSQ), a: f32PosZero, want: f32PosInf},
	{name: "RSQ -0", in: mufu(isa.MufuRSQ), a: f32NegZero, want: f32NegInf},
	{name: "RSQ 4", in: mufu(isa.MufuRSQ), a: 0x40800000, want: f32Half},
	{name: "RSQ +inf", in: mufu(isa.MufuRSQ), a: f32PosInf, want: f32PosZero},
	{name: "RSQ -1", in: mufu(isa.MufuRSQ), a: 0xBF800000, nan32: true},
	{name: "SQRT -0", in: mufu(isa.MufuSQRT), a: f32NegZero, want: f32NegZero},
	{name: "SQRT +inf", in: mufu(isa.MufuSQRT), a: f32PosInf, want: f32PosInf},
	{name: "SQRT 2", in: mufu(isa.MufuSQRT), a: f32Two, want: 0x3FB504F3},
	{name: "SQRT denormal", in: mufu(isa.MufuSQRT), a: f32MinDenom, want: 0x1A3504F3},
	{name: "SQRT -1", in: mufu(isa.MufuSQRT), a: 0xBF800000, nan32: true},
	{name: "SIN +0", in: mufu(isa.MufuSIN), a: f32PosZero, want: f32PosZero},
	{name: "SIN -0", in: mufu(isa.MufuSIN), a: f32NegZero, want: f32NegZero},
	{name: "SIN denormal is itself", in: mufu(isa.MufuSIN), a: f32MinDenom, want: f32MinDenom},
	{name: "SIN inf", in: mufu(isa.MufuSIN), a: f32PosInf, nan32: true},
	{name: "COS 0", in: mufu(isa.MufuCOS), a: f32PosZero, want: f32One},
	{name: "COS -inf", in: mufu(isa.MufuCOS), a: f32NegInf, nan32: true},
	{name: "LG2 +0", in: mufu(isa.MufuLG2), a: f32PosZero, want: f32NegInf},
	{name: "LG2 8", in: mufu(isa.MufuLG2), a: 0x41000000, want: 0x40400000},
	{name: "LG2 denormal", in: mufu(isa.MufuLG2), a: f32MinDenom, want: 0xC3150000},
	{name: "LG2 +inf", in: mufu(isa.MufuLG2), a: f32PosInf, want: f32PosInf},
	{name: "LG2 -1", in: mufu(isa.MufuLG2), a: 0xBF800000, nan32: true},
	{name: "EX2 -inf", in: mufu(isa.MufuEX2), a: f32NegInf, want: f32PosZero},
	{name: "EX2 +inf", in: mufu(isa.MufuEX2), a: f32PosInf, want: f32PosInf},
	{name: "EX2 128 overflows", in: mufu(isa.MufuEX2), a: 0x43000000, want: f32PosInf},
	{name: "EX2 -149 is the smallest denormal", in: mufu(isa.MufuEX2), a: 0xC3150000, want: f32MinDenom},
	{name: "EX2 -150 ties to +0", in: mufu(isa.MufuEX2), a: 0xC3160000, want: f32PosZero},
	{name: "EX2 NaN", in: mufu(isa.MufuEX2), a: f32NaN, nan32: true},
	{name: "unknown MUFU function writes zero", in: mufu(isa.MufuFunc(200)), a: f32One, want: 0},

	// FSETP / DSETP: an unordered pair is neither less nor greater, so it
	// compares as equal — EQ, LE and GE hold, NE, LT and GT do not.
	{name: "FSETP.EQ NaN, 1", in: setp(isa.OpFSETP, isa.CmpEQ), a: f32NaN, b: f32One, want: 1},
	{name: "FSETP.NE NaN, 1", in: setp(isa.OpFSETP, isa.CmpNE), a: f32NaN, b: f32One, want: 0},
	{name: "FSETP.LT NaN, 1", in: setp(isa.OpFSETP, isa.CmpLT), a: f32NaN, b: f32One, want: 0},
	{name: "FSETP.LE NaN, 1", in: setp(isa.OpFSETP, isa.CmpLE), a: f32NaN, b: f32One, want: 1},
	{name: "FSETP.GT 1, NaN", in: setp(isa.OpFSETP, isa.CmpGT), a: f32One, b: f32NaN, want: 0},
	{name: "FSETP.GE 1, NaN", in: setp(isa.OpFSETP, isa.CmpGE), a: f32One, b: f32NaN, want: 1},
	{name: "FSETP.EQ -0, +0", in: setp(isa.OpFSETP, isa.CmpEQ), a: f32NegZero, b: f32PosZero, want: 1},
	{name: "FSETP.LT -0, +0", in: setp(isa.OpFSETP, isa.CmpLT), a: f32NegZero, b: f32PosZero, want: 0},
	{name: "FSETP.LT -inf, denormal", in: setp(isa.OpFSETP, isa.CmpLT), a: f32NegInf, b: f32MinDenom, want: 1},
	{name: "FSETP.GT denormal, +0", in: setp(isa.OpFSETP, isa.CmpGT), a: f32MinDenom, b: f32PosZero, want: 1},
	{name: "FSETP.GE inf, inf", in: setp(isa.OpFSETP, isa.CmpGE), a: f32PosInf, b: f32PosInf, want: 1},
	{name: "FSETP.LT immediate B", in: isa.Instr{Op: isa.OpFSETP, Cmp: isa.CmpLT, Imm: f32Two}, a: f32One, immB: true, want: 1},
	{name: "unknown comparison is false", in: setp(isa.OpFSETP, isa.CmpOp(99)), a: f32One, b: f32One, want: 0},
	{name: "DSETP.EQ NaN, NaN", in: setp(isa.OpDSETP, isa.CmpEQ), a: f64NaN, b: f64NaN, want: 1},
	{name: "DSETP.NE NaN, 1", in: setp(isa.OpDSETP, isa.CmpNE), a: f64NaN, b: f64One, want: 0},
	{name: "DSETP.LT 1, NaN", in: setp(isa.OpDSETP, isa.CmpLT), a: f64One, b: f64NaN, want: 0},
	{name: "DSETP.LE 1, NaN", in: setp(isa.OpDSETP, isa.CmpLE), a: f64One, b: f64NaN, want: 1},
	{name: "DSETP.GT NaN, 1", in: setp(isa.OpDSETP, isa.CmpGT), a: f64NaN, b: f64One, want: 0},
	{name: "DSETP.GE NaN, 1", in: setp(isa.OpDSETP, isa.CmpGE), a: f64NaN, b: f64One, want: 1},
	{name: "DSETP.EQ -0, +0", in: setp(isa.OpDSETP, isa.CmpEQ), a: f64NegZero, b: f64PosZero, want: 1},
	{name: "DSETP.GT denormal, -inf", in: setp(isa.OpDSETP, isa.CmpGT), a: f64MinDenom, b: f64NegInf, want: 1},
	{name: "DSETP.LT 1, 2", in: setp(isa.OpDSETP, isa.CmpLT), a: f64One, b: f64Two, want: 1},
	{name: "DSETP.GE immediate B", in: isa.Instr{Op: isa.OpDSETP, Cmp: isa.CmpGE, Imm: f64Two}, a: f64One, immB: true, want: 0},
}

// TestFPOpcodeEdgeCases pins the floating-point semantics of the lane loops —
// signed zeros, infinities, NaN, denormals, the int64 boundaries of F2I, the
// unfused multiply-adds — to bit patterns. Every case runs as a real
// instruction of one program on the SM (40 threads: a full warp and a partial
// one, so both the whole-row and the masked store are exercised) and is read
// back from global memory for the first and the last thread.
func TestFPOpcodeEdgeCases(t *testing.T) {
	const base, threads = 4096, 40
	stride := int64(8 * len(fpCases))
	b := kernel.NewBuilder("fpedge")
	addr := b.IAddImm(b.IMulImm(b.GlobalIDX(), stride), base)
	ra, rb, rc, dst, one := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.MovImm(1)
	p := b.Pred()
	for i, c := range fpCases {
		for _, ld := range []struct {
			r isa.Reg
			v uint64
		}{{ra, c.a}, {rb, c.b}, {rc, c.c}} {
			b.Emit(isa.Instr{Op: isa.OpMOV32, Dst: ld.r, Imm: int64(ld.v)})
		}
		in := c.in
		in.Srcs = [3]isa.Reg{ra, rb, rc}
		if c.immB {
			in.Srcs[1] = isa.RZ
		}
		switch in.Op {
		case isa.OpFSETP, isa.OpDSETP:
			in.PDst = p
			b.Emit(in)
			b.Emit(isa.Instr{Op: isa.OpSEL, PDst: p, Dst: dst, Srcs: [3]isa.Reg{one, isa.RZ, isa.RZ}})
		case isa.OpMUFU, isa.OpI2F, isa.OpF2I:
			in.Dst, in.Srcs = dst, [3]isa.Reg{ra, isa.RZ, isa.RZ}
			b.Emit(in)
		default:
			in.Dst = dst
			b.Emit(in)
		}
		b.Stg(addr, dst, int64(8*i), 8)
	}
	b.Exit()
	l := &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: threads}}

	s := testSMBacked()
	s.LaunchBlock(l, [3]int64{}, 0)
	for guard := 0; s.Busy(); guard++ {
		if guard > 2_000_000 {
			t.Fatal("SM did not go idle")
		}
		s.Tick()
	}
	for i, c := range fpCases {
		for _, thread := range []int64{0, threads - 1} {
			got := s.storage.Read(uint64(base+thread*stride+int64(8*i)), 8)
			switch {
			case c.nan32:
				if f := math.Float32frombits(uint32(got)); got>>32 != 0 || f == f {
					t.Errorf("%s (thread %d): %#x, want a float32 NaN", c.name, thread, got)
				}
			case c.nan64:
				if f := math.Float64frombits(got); f == f {
					t.Errorf("%s (thread %d): %#x, want a float64 NaN", c.name, thread, got)
				}
			case got != c.want:
				t.Errorf("%s (thread %d): %#x, want %#x", c.name, thread, got, c.want)
			}
		}
	}
}
