// Package isa defines the miniature SASS-like instruction set executed by the
// GPU simulator. It models the operation repertoire of an NVIDIA Streaming
// Multiprocessor at the granularity the Top-Down methodology cares about:
// which execution pipe an instruction occupies, whether it touches memory and
// in which address space, whether it carries control flow, and how its
// operands are encoded.
//
// The package is purely declarative: opcode metadata, register names and the
// instruction container. Functional semantics live in internal/sm (the
// interpreter) and timing lives in internal/gpu (per-architecture latencies).
package isa

import "fmt"

// Reg identifies a general-purpose register operand. Each thread of a warp
// has a private copy of every register. RZ is the hardwired zero register:
// it reads as zero and discards writes, exactly as on real NVIDIA hardware.
type Reg uint16

// Register file bounds. MaxRegs is the per-thread architectural register
// count; kernels declare how many they actually use, which constrains
// occupancy (registers per SM are finite).
const (
	MaxRegs = 255
	// RZ is the zero register.
	RZ Reg = 255
)

// R returns the n-th general purpose register. It panics if n is out of
// range, which turns kernel-authoring typos into immediate failures.
func R(n int) Reg {
	if n < 0 || n >= MaxRegs {
		panic(fmt.Sprintf("isa: register R%d out of range [0,%d)", n, MaxRegs))
	}
	return Reg(n)
}

// String implements fmt.Stringer for registers.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", uint16(r))
}

// PredReg identifies a predicate register. P0..P6 are writable; PT is the
// constant-true predicate used for unpredicated execution. PT is deliberately
// the zero value so a zero Instr is unpredicated.
type PredReg uint8

// Predicate registers.
const (
	// PT always reads true.
	PT PredReg = iota
	P0
	P1
	P2
	P3
	P4
	P5
	P6
	// NumPreds is the count of writable predicate registers.
	NumPreds = 7
)

// String implements fmt.Stringer for predicate registers.
func (p PredReg) String() string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", uint8(p)-1)
}

// SpecialReg enumerates the read-only special registers exposed through S2R,
// mirroring the CUDA built-ins (threadIdx, blockIdx, blockDim, gridDim,
// laneid, warpid and the SM clock).
type SpecialReg uint8

// Special registers readable via S2R.
const (
	SRTidX SpecialReg = iota
	SRTidY
	SRTidZ
	SRCtaIDX
	SRCtaIDY
	SRCtaIDZ
	SRNTidX
	SRNTidY
	SRNTidZ
	SRNCtaIDX
	SRNCtaIDY
	SRNCtaIDZ
	SRLaneID
	SRWarpID
	SRClockLo
	numSpecialRegs
)

var specialRegNames = [...]string{
	"SR_TID.X", "SR_TID.Y", "SR_TID.Z",
	"SR_CTAID.X", "SR_CTAID.Y", "SR_CTAID.Z",
	"SR_NTID.X", "SR_NTID.Y", "SR_NTID.Z",
	"SR_NCTAID.X", "SR_NCTAID.Y", "SR_NCTAID.Z",
	"SR_LANEID", "SR_WARPID", "SR_CLOCKLO",
}

// String implements fmt.Stringer for special registers.
func (s SpecialReg) String() string {
	if int(s) < len(specialRegNames) {
		return specialRegNames[s]
	}
	return fmt.Sprintf("SR_%d", uint8(s))
}

// Pipe identifies the execution pipe (functional-unit class) an instruction
// is dispatched to. Each SM subpartition owns one instance of each pipe with
// an architecture-specific lane width; an instruction occupies its pipe for
// warpSize/lanes cycles (the initiation interval).
type Pipe uint8

// Execution pipes.
const (
	// PipeALU executes integer and logic operations.
	PipeALU Pipe = iota
	// PipeFMA executes single-precision floating-point operations.
	PipeFMA
	// PipeFP64 executes double-precision floating-point operations.
	PipeFP64
	// PipeSFU executes transcendental operations (MUFU.*).
	PipeSFU
	// PipeLSU issues global/local memory operations into the LG queue.
	PipeLSU
	// PipeMIO issues shared-memory and other MIO-class operations.
	PipeMIO
	// PipeTEX issues texture operations.
	PipeTEX
	// PipeCBU is the control/branch/barrier unit.
	PipeCBU
	// NumPipes is the number of distinct execution pipes.
	NumPipes = 8
)

var pipeNames = [...]string{"ALU", "FMA", "FP64", "SFU", "LSU", "MIO", "TEX", "CBU"}

// String implements fmt.Stringer for pipes.
func (p Pipe) String() string {
	if int(p) < len(pipeNames) {
		return pipeNames[p]
	}
	return fmt.Sprintf("PIPE_%d", uint8(p))
}

// CmpOp is the comparison operator of ISETP/FSETP/DSETP.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

var cmpNames = [...]string{"EQ", "NE", "LT", "LE", "GT", "GE"}

// String implements fmt.Stringer for comparison operators.
func (c CmpOp) String() string {
	if int(c) < len(cmpNames) {
		return cmpNames[c]
	}
	return fmt.Sprintf("CMP_%d", uint8(c))
}

// MufuFunc selects the transcendental computed by MUFU on the SFU pipe.
type MufuFunc uint8

// MUFU functions.
const (
	MufuRCP MufuFunc = iota
	MufuRSQ
	MufuSQRT
	MufuSIN
	MufuCOS
	MufuLG2
	MufuEX2
)

var mufuNames = [...]string{"RCP", "RSQ", "SQRT", "SIN", "COS", "LG2", "EX2"}

// String implements fmt.Stringer for MUFU functions.
func (m MufuFunc) String() string {
	if int(m) < len(mufuNames) {
		return mufuNames[m]
	}
	return fmt.Sprintf("MUFU_%d", uint8(m))
}

// AtomOp selects the read-modify-write performed by ATOM/RED.
type AtomOp uint8

// Atomic operations.
const (
	AtomAdd AtomOp = iota
	AtomMin
	AtomMax
	AtomExch
	AtomAnd
	AtomOr
	AtomCAS
)

var atomNames = [...]string{"ADD", "MIN", "MAX", "EXCH", "AND", "OR", "CAS"}

// String implements fmt.Stringer for atomic operations.
func (a AtomOp) String() string {
	if int(a) < len(atomNames) {
		return atomNames[a]
	}
	return fmt.Sprintf("ATOM_%d", uint8(a))
}

// Op is an opcode of the mini ISA.
type Op uint8

// Opcodes. The set covers the instruction classes that matter for Top-Down
// attribution: every execution pipe, every memory space, divergent control
// flow, synchronization, warp communication and atomics.
const (
	OpNOP Op = iota

	// Integer pipe.
	OpIADD  // Dst = Src0 + Src1 (+Imm)
	OpISUB  // Dst = Src0 - Src1
	OpIMUL  // Dst = Src0 * Src1
	OpIMAD  // Dst = Src0*Src1 + Src2
	OpISHL  // Dst = Src0 << (Src1+Imm)
	OpISHR  // Dst = Src0 >> (Src1+Imm) (arithmetic)
	OpIAND  // Dst = Src0 & Src1
	OpIOR   // Dst = Src0 | Src1
	OpIXOR  // Dst = Src0 ^ Src1
	OpIMIN  // Dst = min(Src0, Src1)
	OpIMAX  // Dst = max(Src0, Src1)
	OpPOPC  // Dst = popcount(Src0)
	OpISETP // PDst = Src0 <Cmp> Src1

	// FP32 pipe.
	OpFADD  // float32 add
	OpFMUL  // float32 mul
	OpFFMA  // float32 fused multiply-add
	OpFMIN  // float32 min
	OpFMAX  // float32 max
	OpFSETP // float32 compare into predicate
	OpI2F   // int64 -> float32
	OpF2I   // float32 -> int64 (truncating)

	// FP64 pipe.
	OpDADD  // float64 add
	OpDMUL  // float64 mul
	OpDFMA  // float64 fused multiply-add
	OpDSETP // float64 compare into predicate

	// SFU pipe.
	OpMUFU // transcendental, selected by Mufu field

	// Data movement.
	OpMOV   // Dst = Src0 (or Imm when Src0 == RZ)
	OpMOV32 // Dst = Imm
	OpSEL   // Dst = Pred? Src0 : Src1 (selector in PSrc)
	OpS2R   // Dst = special register

	// Warp communication (MIO-class on real hardware).
	OpSHFL // Dst = register of lane (laneid ^ Imm) — butterfly shuffle
	OpVOTE // Dst = ballot mask of predicate PSrc across the warp

	// Memory.
	OpLDG  // load from global:  Dst = [Src0 + Imm]
	OpSTG  // store to global:   [Src0 + Imm] = Src1
	OpLDS  // load from shared
	OpSTS  // store to shared
	OpLDL  // load from local
	OpSTL  // store to local
	OpLDC  // load from constant bank (through IMC)
	OpTEX  // texture fetch
	OpATOM // atomic RMW on global, returns old value in Dst
	OpRED  // reduction (atomic without return)

	// Control flow and synchronization.
	OpBRA       // predicated branch to Target, reconverging at Recon
	OpEXIT      // thread exit
	OpBAR       // CTA-wide barrier (__syncthreads)
	OpMEMBAR    // memory barrier
	OpNANOSLEEP // put warp to sleep for Imm cycles

	numOps
)

// OpInfo is static metadata for an opcode.
type OpInfo struct {
	Name     string
	Pipe     Pipe
	IsLoad   bool
	IsStore  bool
	IsAtomic bool
	// WritesDst reports whether the op produces a GPR result.
	WritesDst bool
	// WritesPred reports whether the op produces a predicate result.
	WritesPred bool
	// IsBranch flags the ops that carry a branch target and reconvergence
	// point.
	IsBranch bool
	// NumSrcs is how many GPR sources the op reads.
	NumSrcs int
}

var opInfos = [numOps]OpInfo{
	OpNOP: {Name: "NOP", Pipe: PipeALU},

	OpIADD:  {Name: "IADD", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpISUB:  {Name: "ISUB", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIMUL:  {Name: "IMUL", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIMAD:  {Name: "IMAD", Pipe: PipeALU, WritesDst: true, NumSrcs: 3},
	OpISHL:  {Name: "ISHL", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpISHR:  {Name: "ISHR", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIAND:  {Name: "IAND", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIOR:   {Name: "IOR", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIXOR:  {Name: "IXOR", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIMIN:  {Name: "IMIN", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpIMAX:  {Name: "IMAX", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpPOPC:  {Name: "POPC", Pipe: PipeALU, WritesDst: true, NumSrcs: 1},
	OpISETP: {Name: "ISETP", Pipe: PipeALU, WritesPred: true, NumSrcs: 2},

	OpFADD:  {Name: "FADD", Pipe: PipeFMA, WritesDst: true, NumSrcs: 2},
	OpFMUL:  {Name: "FMUL", Pipe: PipeFMA, WritesDst: true, NumSrcs: 2},
	OpFFMA:  {Name: "FFMA", Pipe: PipeFMA, WritesDst: true, NumSrcs: 3},
	OpFMIN:  {Name: "FMIN", Pipe: PipeFMA, WritesDst: true, NumSrcs: 2},
	OpFMAX:  {Name: "FMAX", Pipe: PipeFMA, WritesDst: true, NumSrcs: 2},
	OpFSETP: {Name: "FSETP", Pipe: PipeFMA, WritesPred: true, NumSrcs: 2},
	OpI2F:   {Name: "I2F", Pipe: PipeFMA, WritesDst: true, NumSrcs: 1},
	OpF2I:   {Name: "F2I", Pipe: PipeFMA, WritesDst: true, NumSrcs: 1},

	OpDADD:  {Name: "DADD", Pipe: PipeFP64, WritesDst: true, NumSrcs: 2},
	OpDMUL:  {Name: "DMUL", Pipe: PipeFP64, WritesDst: true, NumSrcs: 2},
	OpDFMA:  {Name: "DFMA", Pipe: PipeFP64, WritesDst: true, NumSrcs: 3},
	OpDSETP: {Name: "DSETP", Pipe: PipeFP64, WritesPred: true, NumSrcs: 2},

	OpMUFU: {Name: "MUFU", Pipe: PipeSFU, WritesDst: true, NumSrcs: 1},

	OpMOV:   {Name: "MOV", Pipe: PipeALU, WritesDst: true, NumSrcs: 1},
	OpMOV32: {Name: "MOV32I", Pipe: PipeALU, WritesDst: true},
	OpSEL:   {Name: "SEL", Pipe: PipeALU, WritesDst: true, NumSrcs: 2},
	OpS2R:   {Name: "S2R", Pipe: PipeALU, WritesDst: true},

	OpSHFL: {Name: "SHFL", Pipe: PipeMIO, WritesDst: true, NumSrcs: 1},
	OpVOTE: {Name: "VOTE.BALLOT", Pipe: PipeALU, WritesDst: true},

	OpLDG:  {Name: "LDG", Pipe: PipeLSU, IsLoad: true, WritesDst: true, NumSrcs: 1},
	OpSTG:  {Name: "STG", Pipe: PipeLSU, IsStore: true, NumSrcs: 2},
	OpLDS:  {Name: "LDS", Pipe: PipeMIO, IsLoad: true, WritesDst: true, NumSrcs: 1},
	OpSTS:  {Name: "STS", Pipe: PipeMIO, IsStore: true, NumSrcs: 2},
	OpLDL:  {Name: "LDL", Pipe: PipeLSU, IsLoad: true, WritesDst: true, NumSrcs: 1},
	OpSTL:  {Name: "STL", Pipe: PipeLSU, IsStore: true, NumSrcs: 2},
	OpLDC:  {Name: "LDC", Pipe: PipeLSU, IsLoad: true, WritesDst: true, NumSrcs: 1},
	OpTEX:  {Name: "TEX", Pipe: PipeTEX, IsLoad: true, WritesDst: true, NumSrcs: 1},
	OpATOM: {Name: "ATOM", Pipe: PipeLSU, IsAtomic: true, IsLoad: true, IsStore: true, WritesDst: true, NumSrcs: 3},
	OpRED:  {Name: "RED", Pipe: PipeLSU, IsAtomic: true, IsStore: true, NumSrcs: 2},

	OpBRA:       {Name: "BRA", Pipe: PipeCBU, IsBranch: true},
	OpEXIT:      {Name: "EXIT", Pipe: PipeCBU},
	OpBAR:       {Name: "BAR.SYNC", Pipe: PipeCBU},
	OpMEMBAR:    {Name: "MEMBAR", Pipe: PipeCBU},
	OpNANOSLEEP: {Name: "NANOSLEEP", Pipe: PipeCBU},
}

// Info returns the static metadata for op. It panics on an invalid opcode.
func (o Op) Info() OpInfo {
	if int(o) >= int(numOps) {
		panic(fmt.Sprintf("isa: invalid opcode %d", uint8(o)))
	}
	return opInfos[o]
}

// String implements fmt.Stringer for opcodes.
func (o Op) String() string {
	if int(o) < int(numOps) {
		return opInfos[o].Name
	}
	return fmt.Sprintf("OP_%d", uint8(o))
}

// NumOps is the number of defined opcodes, exported for table-driven tests.
const NumOps = int(numOps)

// Instr is one machine instruction. The encoding is deliberately wide and
// uniform — the simulator interprets it directly instead of decoding a byte
// stream, but the instruction still occupies a per-architecture byte width in
// the instruction cache (see gpu.Spec.InstrBytes).
type Instr struct {
	Op   Op
	Dst  Reg    // GPR destination (RZ when unused)
	Srcs [3]Reg // GPR sources (RZ when unused)
	Imm  int64  // immediate operand / shift amount / address offset

	// Pred guards execution: the instruction only takes effect in threads
	// where Pred (negated when PredNeg) evaluates true. PT means always.
	Pred    PredReg
	PredNeg bool

	// PDst receives the result of *SETP and is the source predicate of
	// SEL/VOTE (field reused to keep the struct compact).
	PDst PredReg

	// Cmp is the comparator for *SETP.
	Cmp CmpOp
	// Mufu selects the SFU function of MUFU.
	Mufu MufuFunc
	// Atom selects the RMW of ATOM/RED.
	Atom AtomOp

	// Size is the access width in bytes for memory ops (4 or 8).
	Size uint8

	// Target is the branch destination (index into the program) for BRA.
	Target int
	// Recon is the reconvergence point (immediate post-dominator) for a
	// potentially divergent BRA, precomputed by the kernel builder.
	Recon int
}

// String disassembles the instruction into a SASS-flavoured line.
func (in Instr) String() string {
	info := in.Op.Info()
	s := ""
	if in.Pred != PT || in.PredNeg {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		s = fmt.Sprintf("@%s%s ", neg, in.Pred)
	}
	s += info.Name
	switch {
	case in.Op == OpS2R:
		s += fmt.Sprintf(" %s, %s", in.Dst, SpecialReg(in.Imm))
	case in.Op == OpMOV32:
		s += fmt.Sprintf(" %s, 0x%x", in.Dst, in.Imm)
	case in.Op == OpMUFU:
		s += fmt.Sprintf(".%s %s, %s", in.Mufu, in.Dst, in.Srcs[0])
	case in.Op == OpATOM || in.Op == OpRED:
		s += fmt.Sprintf(".%s [%s+0x%x], %s", in.Atom, in.Srcs[0], in.Imm, in.Srcs[1])
		if in.Op == OpATOM {
			s = fmt.Sprintf("%s ; -> %s", s, in.Dst)
		}
	case info.IsLoad:
		s += fmt.Sprintf(".%d %s, [%s+0x%x]", in.Size*8, in.Dst, in.Srcs[0], in.Imm)
	case info.IsStore:
		s += fmt.Sprintf(".%d [%s+0x%x], %s", in.Size*8, in.Srcs[0], in.Imm, in.Srcs[1])
	case info.IsBranch:
		s += fmt.Sprintf(" %d (recon %d)", in.Target, in.Recon)
	case info.WritesPred:
		s += fmt.Sprintf(".%s %s, %s, %s", in.Cmp, in.PDst, in.Srcs[0], in.Srcs[1])
	case info.WritesDst:
		s += fmt.Sprintf(" %s", in.Dst)
		for i := 0; i < info.NumSrcs; i++ {
			s += fmt.Sprintf(", %s", in.Srcs[i])
		}
		if in.Imm != 0 {
			s += fmt.Sprintf(", 0x%x", in.Imm)
		}
	}
	return s
}

// SourceRegs returns the GPR sources actually read by the instruction,
// excluding RZ, compacted into a fixed-size array together with the count of
// valid entries. The fixed-size return keeps the call allocation-free, which
// matters because the SM's decoded-instruction cache and scoreboard consult
// it on the issue hot path.
func (in Instr) SourceRegs() (regs [3]Reg, n int) {
	info := in.Op.Info()
	for i := 0; i < info.NumSrcs; i++ {
		if in.Srcs[i] != RZ {
			regs[n] = in.Srcs[i]
			n++
		}
	}
	return regs, n
}

// Validate checks structural invariants of the instruction and returns a
// descriptive error for the first violation found.
func (in Instr) Validate(programLen int) error {
	if int(in.Op) >= int(numOps) {
		return fmt.Errorf("invalid opcode %d", uint8(in.Op))
	}
	info := in.Op.Info()
	if info.WritesDst && in.Dst == RZ && in.Op != OpNOP {
		// Writing RZ is legal (discard) but almost always a kernel bug;
		// the builder never emits it, so flag it here.
		if !info.IsAtomic {
			return fmt.Errorf("%s writes RZ", info.Name)
		}
	}
	if info.IsBranch {
		if in.Target < 0 || in.Target >= programLen {
			return fmt.Errorf("branch target %d out of program [0,%d)", in.Target, programLen)
		}
		if in.Recon < 0 || in.Recon > programLen {
			return fmt.Errorf("reconvergence point %d out of program [0,%d]", in.Recon, programLen)
		}
	}
	if (info.IsLoad || info.IsStore) && in.Size != 4 && in.Size != 8 {
		return fmt.Errorf("%s has access size %d, want 4 or 8", info.Name, in.Size)
	}
	if in.Op == OpS2R && (in.Imm < 0 || in.Imm >= int64(numSpecialRegs)) {
		return fmt.Errorf("S2R reads invalid special register %d", in.Imm)
	}
	return nil
}
