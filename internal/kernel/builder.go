package kernel

import (
	"fmt"
	"math"

	"gputopdown/internal/isa"
)

// Builder assembles a Program instruction by instruction. It provides
// structured control flow (If/Else/EndIf, For loops, Break) and computes the
// SIMT reconvergence point of every potentially divergent branch, the job
// done by the compiler on real hardware. Value-producing emit methods
// allocate a fresh destination register and return it, so kernels read like
// three-address code:
//
//	b := kernel.NewBuilder("saxpy")
//	x := b.Param(0)
//	i := b.GlobalIDX()
//	...
//
// The zero value is not usable; call NewBuilder. All methods record the first
// error encountered and become no-ops afterwards; Build returns that error.
type Builder struct {
	name     string
	instrs   []isa.Instr
	nextReg  int
	nextPred int
	shared   int
	local    int
	frames   []frame
	err      error
}

type frameKind uint8

const (
	frameIf frameKind = iota
	frameElse
	frameFor
)

type frame struct {
	kind frameKind
	// branchIdx is the conditional forward branch to patch at End*.
	branchIdx int
	// elseJumpIdx is the unconditional then→end jump (frameElse only).
	elseJumpIdx int
	// top is the loop-head index (frameFor only).
	top int
	// counter/limit/step drive the For increment (frameFor only).
	counter isa.Reg
	limit   isa.Reg
	step    int64
	// breaks are BreakIf branch indices awaiting the end label.
	breaks []int
}

// NewBuilder returns a builder for a kernel with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("kernel %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// Reg allocates a fresh general-purpose register.
func (b *Builder) Reg() isa.Reg {
	if b.nextReg >= isa.MaxRegs {
		b.fail("out of registers (max %d)", isa.MaxRegs)
		return isa.Reg(0)
	}
	r := isa.Reg(b.nextReg)
	b.nextReg++
	return r
}

// Pred allocates a predicate register from the rotating pool P0..P6. Kernels
// with more than NumPreds simultaneously-live predicates will misbehave; the
// suite kernels stay well below that.
func (b *Builder) Pred() isa.PredReg {
	p := isa.P0 + isa.PredReg(b.nextPred)
	b.nextPred = (b.nextPred + 1) % isa.NumPreds
	return p
}

// DeclShared reserves n bytes of static shared memory and returns the base
// offset of the reservation.
func (b *Builder) DeclShared(n int) int64 {
	off := int64(b.shared)
	b.shared += n
	// Keep 8-byte alignment for subsequent declarations.
	b.shared = (b.shared + 7) &^ 7
	return off
}

// DeclLocal reserves n bytes of per-thread local memory and returns its base
// offset.
func (b *Builder) DeclLocal(n int) int64 {
	off := int64(b.local)
	b.local += n
	b.local = (b.local + 7) &^ 7
	return off
}

// Here returns the index the next emitted instruction will occupy.
func (b *Builder) Here() int { return len(b.instrs) }

func (b *Builder) emit(in isa.Instr) int {
	if b.err != nil {
		return len(b.instrs)
	}
	b.instrs = append(b.instrs, in)
	return len(b.instrs) - 1
}

// Emit appends a raw instruction (advanced use; the structured helpers are
// preferred). A zero Pred field means unpredicated (PT).
func (b *Builder) Emit(in isa.Instr) int {
	return b.emit(in)
}

func (b *Builder) alu3(op isa.Op, a, c, d isa.Reg, imm int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: op, Dst: dst, Srcs: [3]isa.Reg{a, c, d}, Imm: imm, Pred: isa.PT})
	return dst
}

// ---- Integer pipe ----

// IAdd returns a + c.
func (b *Builder) IAdd(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIADD, a, c, isa.RZ, 0) }

// IAddImm returns a + imm.
func (b *Builder) IAddImm(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpIADD, a, isa.RZ, isa.RZ, imm)
}

// ISub returns a - c.
func (b *Builder) ISub(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpISUB, a, c, isa.RZ, 0) }

// IMul returns a * c.
func (b *Builder) IMul(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIMUL, a, c, isa.RZ, 0) }

// IMulImm returns a * imm.
func (b *Builder) IMulImm(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpIMUL, a, isa.RZ, isa.RZ, imm)
}

// IMad returns a*c + d.
func (b *Builder) IMad(a, c, d isa.Reg) isa.Reg { return b.alu3(isa.OpIMAD, a, c, d, 0) }

// Shl returns a << imm.
func (b *Builder) Shl(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpISHL, a, isa.RZ, isa.RZ, imm)
}

// ShlReg returns a << c.
func (b *Builder) ShlReg(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpISHL, a, c, isa.RZ, 0) }

// Popc returns the population count of a.
func (b *Builder) Popc(a isa.Reg) isa.Reg { return b.alu3(isa.OpPOPC, a, isa.RZ, isa.RZ, 0) }

// Shr returns a >> imm (arithmetic).
func (b *Builder) Shr(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpISHR, a, isa.RZ, isa.RZ, imm)
}

// And returns a & c.
func (b *Builder) And(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIAND, a, c, isa.RZ, 0) }

// AndImm returns a & imm.
func (b *Builder) AndImm(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpIAND, a, isa.RZ, isa.RZ, imm)
}

// Or returns a | c.
func (b *Builder) Or(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIOR, a, c, isa.RZ, 0) }

// Xor returns a ^ c.
func (b *Builder) Xor(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIXOR, a, c, isa.RZ, 0) }

// XorImm returns a ^ imm.
func (b *Builder) XorImm(a isa.Reg, imm int64) isa.Reg {
	return b.alu3(isa.OpIXOR, a, isa.RZ, isa.RZ, imm)
}

// IMin returns min(a, c).
func (b *Builder) IMin(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIMIN, a, c, isa.RZ, 0) }

// IMax returns max(a, c).
func (b *Builder) IMax(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpIMAX, a, c, isa.RZ, 0) }

// ISetp compares a <cmp> c into a fresh predicate.
func (b *Builder) ISetp(cmp isa.CmpOp, a, c isa.Reg) isa.PredReg {
	p := b.Pred()
	b.emit(isa.Instr{Op: isa.OpISETP, PDst: p, Cmp: cmp, Srcs: [3]isa.Reg{a, c, isa.RZ}, Pred: isa.PT})
	return p
}

// ISetpImm compares a <cmp> imm into a fresh predicate.
func (b *Builder) ISetpImm(cmp isa.CmpOp, a isa.Reg, imm int64) isa.PredReg {
	p := b.Pred()
	b.emit(isa.Instr{Op: isa.OpISETP, PDst: p, Cmp: cmp, Srcs: [3]isa.Reg{a, isa.RZ, isa.RZ}, Imm: imm, Pred: isa.PT})
	return p
}

// ---- FP32 pipe ----

// FAdd returns a + c (float32).
func (b *Builder) FAdd(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpFADD, a, c, isa.RZ, 0) }

// FMul returns a * c (float32).
func (b *Builder) FMul(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpFMUL, a, c, isa.RZ, 0) }

// FFma returns a*c + d (float32).
func (b *Builder) FFma(a, c, d isa.Reg) isa.Reg { return b.alu3(isa.OpFFMA, a, c, d, 0) }

// FMin returns min(a, c) (float32).
func (b *Builder) FMin(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpFMIN, a, c, isa.RZ, 0) }

// FMax returns max(a, c) (float32).
func (b *Builder) FMax(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpFMAX, a, c, isa.RZ, 0) }

// FSetp compares a <cmp> c (float32) into a fresh predicate.
func (b *Builder) FSetp(cmp isa.CmpOp, a, c isa.Reg) isa.PredReg {
	p := b.Pred()
	b.emit(isa.Instr{Op: isa.OpFSETP, PDst: p, Cmp: cmp, Srcs: [3]isa.Reg{a, c, isa.RZ}, Pred: isa.PT})
	return p
}

// I2F converts an integer to float32.
func (b *Builder) I2F(a isa.Reg) isa.Reg { return b.alu3(isa.OpI2F, a, isa.RZ, isa.RZ, 0) }

// F2I truncates a float32 to integer.
func (b *Builder) F2I(a isa.Reg) isa.Reg { return b.alu3(isa.OpF2I, a, isa.RZ, isa.RZ, 0) }

// ---- FP64 pipe ----

// DAdd returns a + c (float64).
func (b *Builder) DAdd(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpDADD, a, c, isa.RZ, 0) }

// DMul returns a * c (float64).
func (b *Builder) DMul(a, c isa.Reg) isa.Reg { return b.alu3(isa.OpDMUL, a, c, isa.RZ, 0) }

// DFma returns a*c + d (float64).
func (b *Builder) DFma(a, c, d isa.Reg) isa.Reg { return b.alu3(isa.OpDFMA, a, c, d, 0) }

// ---- SFU pipe ----

// Mufu computes a transcendental of a on the SFU pipe.
func (b *Builder) Mufu(f isa.MufuFunc, a isa.Reg) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpMUFU, Mufu: f, Dst: dst, Srcs: [3]isa.Reg{a, isa.RZ, isa.RZ}, Pred: isa.PT})
	return dst
}

// ---- Data movement ----

// MovImm loads a 64-bit immediate into a fresh register.
func (b *Builder) MovImm(v int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpMOV32, Dst: dst, Imm: v, Pred: isa.PT})
	return dst
}

// FConst loads a float32 constant.
func (b *Builder) FConst(v float32) isa.Reg {
	return b.MovImm(int64(math.Float32bits(v)))
}

// DConst loads a float64 constant.
func (b *Builder) DConst(v float64) isa.Reg {
	return b.MovImm(int64(math.Float64bits(v)))
}

// Mov copies a register.
func (b *Builder) Mov(a isa.Reg) isa.Reg { return b.alu3(isa.OpMOV, a, isa.RZ, isa.RZ, 0) }

// MovTo overwrites dst with src (for loop-carried values).
func (b *Builder) MovTo(dst, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpMOV, Dst: dst, Srcs: [3]isa.Reg{src, isa.RZ, isa.RZ}, Pred: isa.PT})
}

// MovToIf overwrites dst with src in threads where p (negated if neg) holds.
func (b *Builder) MovToIf(p isa.PredReg, neg bool, dst, src isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpMOV, Dst: dst, Srcs: [3]isa.Reg{src, isa.RZ, isa.RZ}, Pred: p, PredNeg: neg})
}

// Sel returns p ? a : c.
func (b *Builder) Sel(p isa.PredReg, a, c isa.Reg) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpSEL, PDst: p, Dst: dst, Srcs: [3]isa.Reg{a, c, isa.RZ}, Pred: isa.PT})
	return dst
}

// S2R reads a special register.
func (b *Builder) S2R(sr isa.SpecialReg) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpS2R, Dst: dst, Imm: int64(sr), Pred: isa.PT})
	return dst
}

// GlobalIDX computes the flattened global thread index
// blockIdx.x*blockDim.x + threadIdx.x.
func (b *Builder) GlobalIDX() isa.Reg {
	tid := b.S2R(isa.SRTidX)
	cta := b.S2R(isa.SRCtaIDX)
	ntid := b.S2R(isa.SRNTidX)
	return b.IMad(cta, ntid, tid)
}

// ---- Warp communication ----

// ShflXor reads the source register from lane (laneid ^ mask).
func (b *Builder) ShflXor(a isa.Reg, mask int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpSHFL, Dst: dst, Srcs: [3]isa.Reg{a, isa.RZ, isa.RZ}, Imm: mask, Pred: isa.PT})
	return dst
}

// Ballot returns the warp-wide ballot mask of predicate p.
func (b *Builder) Ballot(p isa.PredReg) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpVOTE, PDst: p, Dst: dst, Pred: isa.PT})
	return dst
}

// ---- Memory ----

// Ldg loads size bytes from global memory at [addr+off].
func (b *Builder) Ldg(addr isa.Reg, off int64, size int) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpLDG, Dst: dst, Srcs: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
	return dst
}

// Stg stores size bytes of val to global memory at [addr+off].
func (b *Builder) Stg(addr, val isa.Reg, off int64, size int) {
	b.emit(isa.Instr{Op: isa.OpSTG, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
}

// StgIf is Stg predicated on p (negated if neg).
func (b *Builder) StgIf(p isa.PredReg, neg bool, addr, val isa.Reg, off int64, size int) {
	b.emit(isa.Instr{Op: isa.OpSTG, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: uint8(size), Pred: p, PredNeg: neg})
}

// Lds loads from shared memory at [addr+off].
func (b *Builder) Lds(addr isa.Reg, off int64, size int) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpLDS, Dst: dst, Srcs: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
	return dst
}

// Sts stores to shared memory at [addr+off].
func (b *Builder) Sts(addr, val isa.Reg, off int64, size int) {
	b.emit(isa.Instr{Op: isa.OpSTS, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
}

// Ldl loads from per-thread local memory.
func (b *Builder) Ldl(addr isa.Reg, off int64, size int) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpLDL, Dst: dst, Srcs: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
	return dst
}

// Stl stores to per-thread local memory.
func (b *Builder) Stl(addr, val isa.Reg, off int64, size int) {
	b.emit(isa.Instr{Op: isa.OpSTL, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
}

// Ldc loads size bytes from the constant bank at [addr+off].
func (b *Builder) Ldc(addr isa.Reg, off int64, size int) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpLDC, Dst: dst, Srcs: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
	return dst
}

// LdcOff loads from a fixed constant-bank offset.
func (b *Builder) LdcOff(off int64, size int) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpLDC, Dst: dst, Srcs: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Imm: off, Size: uint8(size), Pred: isa.PT})
	return dst
}

// Param loads the i-th 64-bit launch parameter from the constant bank, the
// way compiled CUDA kernels read c[0x0][0x160+...].
func (b *Builder) Param(i int) isa.Reg {
	return b.LdcOff(ParamOffset(i), 8)
}

// Tex performs a texture fetch at coordinate register a.
func (b *Builder) Tex(a isa.Reg, off int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpTEX, Dst: dst, Srcs: [3]isa.Reg{a, isa.RZ, isa.RZ}, Imm: off, Size: 4, Pred: isa.PT})
	return dst
}

// Atom performs an atomic RMW on global memory and returns the old value.
func (b *Builder) Atom(op isa.AtomOp, addr, val isa.Reg, off int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpATOM, Atom: op, Dst: dst, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: 4, Pred: isa.PT})
	return dst
}

// AtomIf is Atom predicated on p (negated if neg): only lanes where the
// predicate holds perform the RMW and receive the old value.
func (b *Builder) AtomIf(p isa.PredReg, neg bool, op isa.AtomOp, addr, val isa.Reg, off int64) isa.Reg {
	dst := b.Reg()
	b.emit(isa.Instr{Op: isa.OpATOM, Atom: op, Dst: dst, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: 4, Pred: p, PredNeg: neg})
	return dst
}

// Red performs an atomic reduction (no return value) on global memory.
func (b *Builder) Red(op isa.AtomOp, addr, val isa.Reg, off int64) {
	b.emit(isa.Instr{Op: isa.OpRED, Atom: op, Srcs: [3]isa.Reg{addr, val, isa.RZ}, Imm: off, Size: 4, Pred: isa.PT})
}

// ---- Synchronization and control ----

// Bar emits a CTA-wide barrier (__syncthreads).
func (b *Builder) Bar() {
	b.emit(isa.Instr{Op: isa.OpBAR, Pred: isa.PT})
}

// Membar emits a memory barrier.
func (b *Builder) Membar() {
	b.emit(isa.Instr{Op: isa.OpMEMBAR, Pred: isa.PT})
}

// Nanosleep puts the warp to sleep for roughly cycles cycles.
func (b *Builder) Nanosleep(cycles int64) {
	b.emit(isa.Instr{Op: isa.OpNANOSLEEP, Imm: cycles, Pred: isa.PT})
}

// Exit terminates all threads reaching it.
func (b *Builder) Exit() {
	b.emit(isa.Instr{Op: isa.OpEXIT, Pred: isa.PT})
}

// ExitIf terminates the threads where p (negated if neg) holds — the
// "if (gid >= n) return;" guard idiom.
func (b *Builder) ExitIf(p isa.PredReg, neg bool) {
	b.emit(isa.Instr{Op: isa.OpEXIT, Pred: p, PredNeg: neg})
}

// If opens a region executed by threads where p holds. Potentially divergent.
func (b *Builder) If(p isa.PredReg) {
	// Threads where !p jump ahead; patched at Else/EndIf.
	idx := b.emit(isa.Instr{Op: isa.OpBRA, Pred: p, PredNeg: true})
	b.frames = append(b.frames, frame{kind: frameIf, branchIdx: idx})
}

// Else switches the open If region to its complement path.
func (b *Builder) Else() {
	if len(b.frames) == 0 || b.frames[len(b.frames)-1].kind != frameIf {
		b.fail("Else without matching If")
		return
	}
	f := &b.frames[len(b.frames)-1]
	// Unconditional jump from the end of the then-path to the end.
	f.elseJumpIdx = b.emit(isa.Instr{Op: isa.OpBRA, Pred: isa.PT})
	// The If branch lands at the start of the else-path.
	if b.err == nil {
		b.instrs[f.branchIdx].Target = len(b.instrs)
	}
	f.kind = frameElse
}

// EndIf closes an If/Else region, patching branch targets and reconvergence
// points to the instruction that follows.
func (b *Builder) EndIf() {
	if len(b.frames) == 0 || (b.frames[len(b.frames)-1].kind != frameIf && b.frames[len(b.frames)-1].kind != frameElse) {
		b.fail("EndIf without matching If")
		return
	}
	f := b.frames[len(b.frames)-1]
	b.frames = b.frames[:len(b.frames)-1]
	if b.err != nil {
		return
	}
	end := len(b.instrs)
	if f.kind == frameIf {
		b.instrs[f.branchIdx].Target = end
	}
	b.instrs[f.branchIdx].Recon = end
	if f.kind == frameElse {
		b.instrs[f.elseJumpIdx].Target = end
		b.instrs[f.elseJumpIdx].Recon = end
	}
}

// For opens a counted loop: for (i = start; i < limit; i += step). It returns
// the counter register. limit is a register so per-thread trip counts (and
// hence loop divergence) are expressible; use MovImm for uniform limits.
func (b *Builder) For(start int64, limit isa.Reg, step int64) isa.Reg {
	if step <= 0 {
		// The loop exits on counter >= limit; a non-positive step could
		// never reach it.
		b.fail("For with non-positive step %d", step)
		return isa.Reg(0)
	}
	i := b.MovImm(start)
	top := len(b.instrs)
	p := b.Pred()
	// Exit test at the top: i >= limit leaves the loop.
	b.emit(isa.Instr{Op: isa.OpISETP, PDst: p, Cmp: isa.CmpGE, Srcs: [3]isa.Reg{i, limit, isa.RZ}, Pred: isa.PT})
	idx := b.emit(isa.Instr{Op: isa.OpBRA, Pred: p}) // patched to end
	b.frames = append(b.frames, frame{kind: frameFor, branchIdx: idx, top: top, counter: i, limit: limit, step: step})
	return i
}

// ForImm is For with an immediate limit.
func (b *Builder) ForImm(start, limit, step int64) isa.Reg {
	return b.For(start, b.MovImm(limit), step)
}

// BreakIf jumps to the loop end in threads where p (negated if neg) holds.
func (b *Builder) BreakIf(p isa.PredReg, neg bool) {
	for k := len(b.frames) - 1; k >= 0; k-- {
		if b.frames[k].kind == frameFor {
			idx := b.emit(isa.Instr{Op: isa.OpBRA, Pred: p, PredNeg: neg})
			b.frames[k].breaks = append(b.frames[k].breaks, idx)
			return
		}
	}
	b.fail("BreakIf outside any For")
}

// EndFor closes the innermost For loop.
func (b *Builder) EndFor() {
	if len(b.frames) == 0 || b.frames[len(b.frames)-1].kind != frameFor {
		b.fail("EndFor without matching For")
		return
	}
	f := b.frames[len(b.frames)-1]
	b.frames = b.frames[:len(b.frames)-1]
	if b.err != nil {
		return
	}
	// i += step
	b.emit(isa.Instr{Op: isa.OpIADD, Dst: f.counter, Srcs: [3]isa.Reg{f.counter, isa.RZ, isa.RZ}, Imm: f.step, Pred: isa.PT})
	// Unconditional back-edge to the top test.
	back := b.emit(isa.Instr{Op: isa.OpBRA, Pred: isa.PT})
	end := len(b.instrs)
	b.instrs[back].Target = f.top
	b.instrs[back].Recon = end
	b.instrs[f.branchIdx].Target = end
	b.instrs[f.branchIdx].Recon = end
	for _, idx := range f.breaks {
		b.instrs[idx].Target = end
		b.instrs[idx].Recon = end
	}
}

// Build finalises the program. An EXIT is appended if the stream does not
// already end with one.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.frames) != 0 {
		return nil, fmt.Errorf("kernel %s: %d unclosed control-flow regions", b.name, len(b.frames))
	}
	if n := len(b.instrs); n == 0 || b.instrs[n-1].Op != isa.OpEXIT {
		b.Exit()
	}
	regs := b.nextReg
	if regs < 1 {
		regs = 1
	}
	p := &Program{
		Name:        b.name,
		Instrs:      b.instrs,
		NumRegs:     regs,
		SharedBytes: b.shared,
		LocalBytes:  b.local,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for static kernel definitions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
