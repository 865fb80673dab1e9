package sm

import (
	"fmt"
	"math"
	"math/bits"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

func f32bits(f float32) uint64 { return uint64(math.Float32bits(f)) }
func f32val(b uint64) float32  { return math.Float32frombits(uint32(b)) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }
func f64val(b uint64) float64  { return math.Float64frombits(b) }
func ceilDiv(a, b int) int     { return (a + b - 1) / b }
func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// issue executes the next instruction of the selected warp: functional
// semantics first (real register values, real addresses), then timing
// (scoreboard completion times, pipe initiation intervals, queue pushes,
// replay accounting).
func (s *SM) issue(sp *subpart, w *warp, now uint64) {
	topIdx := len(w.stack) - 1
	pc := w.stack[topIdx].pc
	in := &w.block.launch.Program.Instrs[pc]
	d := &w.block.dec.instrs[pc]
	active := w.activeMask()
	pmask := w.predMask(in.Pred, in.PredNeg) & active
	spec := s.spec

	s.ctr.InstIssued++
	s.ctr.InstExecuted++
	s.ctr.ThreadInstExecuted += popcount(pmask)
	if len(w.stack) > 1 && spec.DivergenceMitigation > 0 {
		// Post-Volta independent thread scheduling lets idle lanes of a
		// divergent warp make progress on the other path; credit a fraction
		// of them as executed thread-instructions (affects warp efficiency
		// only — see DESIGN.md §1).
		idle := popcount((w.members &^ w.exited) &^ active)
		s.ctr.ThreadInstExecuted += uint64(spec.DivergenceMitigation * float64(idle))
	}

	// Register-file bank conflict between distinct source registers: the
	// operand collector needs an extra cycle, surfacing as a "misc" stall on
	// the warp's next instruction. A static property, precomputed at decode.
	if d.bankConflict {
		s.ctr.RegBankConflicts++
		if w.nextEligible < now+2 {
			w.nextEligible = now + 2
			w.eligibleReason = StateMisc
		}
	}

	// Initiation interval: the pipe is occupied for warpSize/lanes cycles.
	ii := d.ii
	dispatchCycles := d.dispatch
	advancePC := true

	switch d.class {
	case classNOP:
		// nothing

	case classS2R:
		s.execS2R(w, in, pmask, now)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case classMOV32:
		var res [32]uint64
		fill(&res, uint64(in.Imm))
		w.store(in.Dst, &res, pmask)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case classMOV:
		w.store(in.Dst, w.row(in.Srcs[0]), pmask)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case classSEL:
		sel := w.predMask(in.PDst, false)
		w.store(in.Dst, w.row(in.Srcs[1]), pmask&^sel)
		w.store(in.Dst, w.row(in.Srcs[0]), pmask&sel)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case classVOTE:
		ballot := uint64(w.preds[in.PDst] & pmask)
		if in.PDst == isa.PT {
			ballot = uint64(pmask)
		}
		var res [32]uint64
		fill(&res, ballot)
		w.store(in.Dst, &res, pmask)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case classSHFL:
		src := w.row(in.Srcs[0])
		var res [32]uint64
		for lane := range res {
			res[lane] = src[lane^int(in.Imm&31)]
		}
		w.store(in.Dst, &res, pmask)
		done := now + uint64(spec.SharedLatency)/2
		w.setRegReady(in.Dst, done, depShort)
		sp.mioQueue.Push(done)

	case classSFU:
		execMUFU(&w.regs[in.Dst], w.row(in.Srcs[0]), in.Mufu, pmask)
		w.setRegReady(in.Dst, now+uint64(spec.SFULatency), depFixed)

	case classSETP:
		s.execSetp(w, in, pmask, now)

	case classALU:
		s.execALU(w, in, pmask, now, d.lat)

	case classMem:
		extraIssues, pipeBusy := s.execMemory(sp, w, in, pmask, now)
		s.ctr.InstIssued += uint64(extraIssues)
		if pipeBusy > ii {
			ii = pipeBusy
		}
		// Replayed issues occupy the dispatch unit for real cycles, so the
		// subpartition's issue rate (and hence issued IPC) stays bounded by
		// its dispatch bandwidth.
		dispatchCycles += uint64(extraIssues)

	case classBRA:
		s.ctr.BranchInstrs++
		taken := pmask
		notTaken := active &^ taken
		top := &w.stack[topIdx]
		switch {
		case taken == 0:
			top.pc = pc + 1
		case notTaken == 0:
			top.pc = in.Target
		default:
			s.ctr.DivergentBranches++
			top.pc = in.Recon // this entry becomes the reconvergence point
			w.stack = append(w.stack,
				stackEntry{pc: in.Target, rpc: in.Recon, mask: taken},
				stackEntry{pc: pc + 1, rpc: in.Recon, mask: notTaken},
			)
		}
		advancePC = false
		if w.nextEligible < now+uint64(spec.BranchLatency) {
			w.nextEligible = now + uint64(spec.BranchLatency)
			w.eligibleReason = StateBranchResolving
		}

	case classEXIT:
		w.exited |= pmask

	case classBAR:
		w.atBarrier = true
		w.block.arrived++
		// The release check runs after advancing the PC so the warp resumes
		// past the barrier.

	case classMEMBAR:
		w.membarPending = true

	case classNANOSLEEP:
		if in.Imm > 0 {
			w.nextEligible = now + uint64(in.Imm)
			w.eligibleReason = StateSleeping
		}

	default:
		panic(fmt.Sprintf("sm: unhandled opcode %s", in.Op))
	}

	if advancePC {
		w.stack[topIdx].pc = pc + 1
	}
	if d.class == classBAR {
		s.checkBarrier(w.block)
	}

	sp.pipeFree[d.pipe] = now + ii
	sp.dispatchFree = now + dispatchCycles
}

// The functional lane loops below decide the opcode once per instruction and
// then run over whole 32-lane operand rows. They compute every lane — the
// operations are pure, so a value computed for an inactive lane is simply
// dropped — and store merges the lanes of the issue mask into the destination.

// zeroRow is the operand row of RZ. Never written.
var zeroRow [32]uint64

// row returns the register's 32-lane operand row, with RZ reading zero.
func (w *warp) row(r isa.Reg) *[32]uint64 {
	if r == isa.RZ {
		return &zeroRow
	}
	return &w.regs[r]
}

// store writes the lanes of res selected by mask into register r. res may
// alias the destination row or another register's.
func (w *warp) store(r isa.Reg, res *[32]uint64, mask uint32) {
	dst := &w.regs[r]
	if mask == 0xFFFFFFFF {
		*dst = *res
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		lane := bits.TrailingZeros32(mask) & 31
		dst[lane] = res[lane]
	}
}

func fill(row *[32]uint64, v uint64) {
	for lane := range row {
		row[lane] = v
	}
}

func (s *SM) execS2R(w *warp, in *isa.Instr, pmask uint32, now uint64) {
	blk := w.block
	var res [32]uint64
	switch sr := isa.SpecialReg(in.Imm); sr {
	case isa.SRTidX, isa.SRTidY, isa.SRTidZ:
		// One division for lane 0, then lanes walk the block row-major.
		bd := blk.launch.Block.Norm()
		x, y, z := blk.threadID(w.warpInBlock, 0)
		for lane := range res {
			res[lane] = uint64([3]int64{x, y, z}[sr-isa.SRTidX])
			if x++; x == int64(bd.X) {
				x = 0
				if y++; y == int64(bd.Y) {
					y, z = 0, z+1
				}
			}
		}
	case isa.SRCtaIDX, isa.SRCtaIDY, isa.SRCtaIDZ:
		fill(&res, uint64(blk.ctaid[sr-isa.SRCtaIDX]))
	case isa.SRNTidX, isa.SRNTidY, isa.SRNTidZ:
		bd := blk.launch.Block.Norm()
		fill(&res, uint64([3]int{bd.X, bd.Y, bd.Z}[sr-isa.SRNTidX]))
	case isa.SRNCtaIDX, isa.SRNCtaIDY, isa.SRNCtaIDZ:
		gd := blk.launch.Grid.Norm()
		fill(&res, uint64([3]int{gd.X, gd.Y, gd.Z}[sr-isa.SRNCtaIDX]))
	case isa.SRLaneID:
		for lane := range res {
			res[lane] = uint64(lane)
		}
	case isa.SRWarpID:
		fill(&res, uint64(w.warpInBlock))
	case isa.SRClockLo:
		fill(&res, now)
	}
	w.store(in.Dst, &res, pmask)
}

// fpOperandB is operand B of a floating-point instruction: the Srcs[1] row,
// or — the immediate form, Srcs[1] == RZ with a non-zero Imm — buf filled
// with the bit pattern in Imm.
func (w *warp) fpOperandB(in *isa.Instr, buf *[32]uint64) *[32]uint64 {
	if in.Srcs[1] == isa.RZ && in.Imm != 0 {
		fill(buf, uint64(in.Imm))
		return buf
	}
	return w.row(in.Srcs[1])
}

// execSetp computes, for every lane, whether a < b and whether a > b, then
// applies the comparison once to the two masks. An unordered pair (a NaN
// operand) is neither, which makes it compare as equal: EQ, LE and GE hold,
// NE, LT and GT do not. Integer operand B is Srcs[1] + Imm.
func (s *SM) execSetp(w *warp, in *isa.Instr, pmask uint32, now uint64) {
	var lt, gt uint32
	a := w.row(in.Srcs[0])
	lat := s.spec.ALULatency
	switch in.Op {
	case isa.OpISETP:
		b := w.row(in.Srcs[1])
		for lane := range a {
			x, y := int64(a[lane]), int64(b[lane])+in.Imm
			lt |= b2u(x < y) << lane
			gt |= b2u(x > y) << lane
		}
	case isa.OpFSETP:
		b := w.fpOperandB(in, &s.immRow)
		for lane := range a {
			x, y := f32val(a[lane]), f32val(b[lane])
			lt |= b2u(x < y) << lane
			gt |= b2u(x > y) << lane
		}
		lat = s.spec.FMALatency
	case isa.OpDSETP:
		b := w.fpOperandB(in, &s.immRow)
		for lane := range a {
			x, y := f64val(a[lane]), f64val(b[lane])
			lt |= b2u(x < y) << lane
			gt |= b2u(x > y) << lane
		}
		lat = s.spec.FP64Latency
	}
	var result uint32
	switch in.Cmp {
	case isa.CmpEQ:
		result = ^(lt | gt)
	case isa.CmpNE:
		result = lt | gt
	case isa.CmpLT:
		result = lt
	case isa.CmpLE:
		result = ^gt
	case isa.CmpGT:
		result = gt
	case isa.CmpGE:
		result = ^lt
	}
	w.setPred(in.PDst, pmask, result)
	if in.PDst != isa.PT {
		w.predReady[in.PDst] = now + uint64(lat)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// f2i converts toward zero. For NaN and values outside int64 Go leaves the
// conversion implementation-defined; the model pins math.MinInt64, amd64's
// "integer indefinite", which is what the goldens were recorded with.
func f2i(f float32) int64 {
	if f >= -(1<<63) && f < 1<<63 {
		return int64(f)
	}
	return math.MinInt64
}

// execALU runs one ALU/FMA/FP64 instruction. Integer operand B is
// Srcs[1] + Imm, which gives the immediate forms when Srcs[1] is RZ;
// floating-point operand B is fpOperandB. Every operation is lane-wise, so
// with every lane issuing the result is written straight into the
// destination row, even when it is an operand row too; otherwise it is
// computed into the SM's scratch row and the issuing lanes are merged.
func (s *SM) execALU(w *warp, in *isa.Instr, pmask uint32, now uint64, lat uint64) {
	a, b, c := w.row(in.Srcs[0]), w.row(in.Srcs[1]), w.row(in.Srcs[2])
	imm := in.Imm
	res := &s.resRow
	if pmask == 0xFFFFFFFF {
		res = &w.regs[in.Dst]
	}
	buf := &s.immRow
	switch in.Op {
	case isa.OpIADD:
		for l := range res {
			res[l] = uint64(int64(a[l]) + int64(b[l]) + imm)
		}
	case isa.OpISUB:
		for l := range res {
			res[l] = uint64(int64(a[l]) - (int64(b[l]) + imm))
		}
	case isa.OpIMUL:
		for l := range res {
			res[l] = uint64(int64(a[l]) * (int64(b[l]) + imm))
		}
	case isa.OpIMAD:
		for l := range res {
			res[l] = uint64(int64(a[l])*int64(b[l]) + int64(c[l]) + imm)
		}
	case isa.OpISHL:
		for l := range res {
			res[l] = uint64(int64(a[l]) << uint((int64(b[l])+imm)&63))
		}
	case isa.OpISHR:
		for l := range res {
			res[l] = uint64(int64(a[l]) >> uint((int64(b[l])+imm)&63))
		}
	case isa.OpIAND:
		for l := range res {
			res[l] = a[l] & uint64(int64(b[l])+imm)
		}
	case isa.OpIOR:
		for l := range res {
			res[l] = a[l] | uint64(int64(b[l])+imm)
		}
	case isa.OpIXOR:
		for l := range res {
			res[l] = a[l] ^ uint64(int64(b[l])+imm)
		}
	case isa.OpIMIN:
		for l := range res {
			res[l] = uint64(min(int64(a[l]), int64(b[l])+imm))
		}
	case isa.OpIMAX:
		for l := range res {
			res[l] = uint64(max(int64(a[l]), int64(b[l])+imm))
		}
	case isa.OpPOPC:
		for l := range res {
			res[l] = uint64(bits.OnesCount64(a[l]))
		}
	case isa.OpFADD:
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f32bits(f32val(a[l]) + f32val(b[l]))
		}
	case isa.OpFMUL:
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f32bits(f32val(a[l]) * f32val(b[l]))
		}
	case isa.OpFFMA:
		// Unfused: the explicit conversion rounds the product, which forbids
		// the fusion Go otherwise allows (and arm64, ppc64le, s390x perform).
		for l := range res {
			res[l] = f32bits(float32(f32val(a[l])*f32val(b[l])) + f32val(c[l]))
		}
	case isa.OpFMIN:
		// math.Min and math.Max: -0 orders below +0, and a NaN operand gives
		// NaN (not the other operand, as IEEE minNum/maxNum would) unless the
		// other is the infinity on the operation's side: Min(NaN, -Inf) is
		// -Inf and Max(NaN, +Inf) is +Inf.
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f32bits(float32(math.Min(float64(f32val(a[l])), float64(f32val(b[l])))))
		}
	case isa.OpFMAX:
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f32bits(float32(math.Max(float64(f32val(a[l])), float64(f32val(b[l])))))
		}
	case isa.OpI2F:
		for l := range res {
			res[l] = f32bits(float32(int64(a[l])))
		}
	case isa.OpF2I:
		for l := range res {
			res[l] = uint64(f2i(f32val(a[l])))
		}
	case isa.OpDADD:
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f64bits(f64val(a[l]) + f64val(b[l]))
		}
	case isa.OpDMUL:
		b = w.fpOperandB(in, buf)
		for l := range res {
			res[l] = f64bits(f64val(a[l]) * f64val(b[l]))
		}
	case isa.OpDFMA:
		for l := range res { // unfused, as FFMA
			res[l] = f64bits(float64(f64val(a[l])*f64val(b[l])) + f64val(c[l]))
		}
	default:
		panic(fmt.Sprintf("sm: unhandled ALU op %s", in.Op))
	}
	if res == &s.resRow {
		w.store(in.Dst, res, pmask)
	}
	// lat is the decoded pipe latency (FMA/FP64/ALU per the spec).
	w.setRegReady(in.Dst, now+lat, depFixed)
}

// mufuFuncs are the SFU functions, each evaluated in float64 and rounded
// once to float32 (for RCP that equals the float32 quotient: a double
// rounding through 53 bits is innocuous for a 24-bit division).
var mufuFuncs = [...]func(float64) float64{
	isa.MufuRCP:  func(x float64) float64 { return 1 / x },
	isa.MufuRSQ:  func(x float64) float64 { return 1 / math.Sqrt(x) },
	isa.MufuSQRT: math.Sqrt,
	isa.MufuSIN:  math.Sin,
	isa.MufuCOS:  math.Cos,
	isa.MufuLG2:  math.Log2,
	isa.MufuEX2:  math.Exp2,
}

// execMUFU applies the SFU function to the lanes of mask only: unlike the ALU
// operations a transcendental is too costly to compute for idle lanes — and
// for the same reason it is evaluated once per run of consecutive active lanes
// holding the same operand bits, which for a warp-uniform operand is once. An
// unknown function writes zero. dst may be src.
func execMUFU(dst, src *[32]uint64, fn isa.MufuFunc, mask uint32) {
	f := func(float64) float64 { return 0 }
	if int(fn) < len(mufuFuncs) {
		f = mufuFuncs[fn]
	}
	var arg uint32 // operand bits res was computed from, once evaluated
	var res uint64
	for evaluated := false; mask != 0; mask &= mask - 1 {
		lane := bits.TrailingZeros32(mask) & 31
		if x := uint32(src[lane]); !evaluated || x != arg {
			arg, res, evaluated = x, f32bits(float32(f(float64(math.Float32frombits(x))))), true
		}
		dst[lane] = res
	}
}

// laneAddrs computes the effective address of a memory instruction, the
// Srcs[0] register plus Imm, for every lane of mask.
func (w *warp) laneAddrs(addrs *[32]uint64, in *isa.Instr, mask uint32) {
	base := w.row(in.Srcs[0])
	for ; mask != 0; mask &= mask - 1 {
		lane := bits.TrailingZeros32(mask) & 31
		addrs[lane] = uint64(int64(base[lane]) + in.Imm)
	}
}

// execMemory handles every load/store/atomic. It returns the number of
// extra (replay) issues and the LSU/MIO occupancy in cycles. Like the ALU
// loops it decides opcode and width once and then runs over operand rows,
// but only over the lanes of the issue mask: an inactive lane's address is
// never formed, checked or accessed.
func (s *SM) execMemory(sp *subpart, w *warp, in *isa.Instr, pmask uint32, now uint64) (extraIssues int, pipeBusy uint64) {
	spec := s.spec
	size := int(in.Size)

	switch in.Op {
	case isa.OpLDG, isa.OpSTG, isa.OpATOM, isa.OpRED, isa.OpLDL, isa.OpSTL, isa.OpTEX:
		var addrs [32]uint64
		w.laneAddrs(&addrs, in, pmask)
		if in.Op == isa.OpLDL || in.Op == isa.OpSTL {
			// Local memory is interleaved per-word so that same-offset
			// accesses across a warp coalesce, as the hardware arranges.
			// The access width is 4 or 8 (isa.Instr.Validate): words by shift.
			gtid := uint64(w.block.blockLinear*w.block.launch.BlockThreads() + w.warpInBlock*kernel.WarpSize)
			wordShift := uint(bits.TrailingZeros8(in.Size))
			for m := pmask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				word := addrs[lane] >> wordShift
				addrs[lane] = s.localBase + (word*uint64(s.totalThreads)+gtid+uint64(lane))<<wordShift
			}
		}
		sectors := mem.CoalesceSectorsInto(s.sectorScratch[:0], &addrs, pmask, size, uint64(spec.SectorSize))
		s.sectorScratch = sectors // keep the (possibly re-grown) backing
		switch in.Op {
		case isa.OpLDG, isa.OpLDL:
			s.storage.ReadLanes(&w.regs[in.Dst], &addrs, pmask, size)
			done, n := s.dp.GlobalLoad(now, sectors)
			w.setRegReady(in.Dst, done, depLong)
			sp.lgQueue.Push(done)
			return max0(n-1) / 4, uint64(max1(n / 2))
		case isa.OpSTG, isa.OpSTL:
			s.storage.WriteLanes(&addrs, w.row(in.Srcs[1]), pmask, size)
			posted, visible, n := s.dp.GlobalStore(now, sectors)
			w.storesPending = append(w.storesPending, posted)
			w.fenceUntil = maxU64(w.fenceUntil, visible)
			sp.lgQueue.Push(posted)
			return max0(n-1) / 4, uint64(max1(n / 2))
		case isa.OpTEX:
			s.storage.ReadLanes(&w.regs[in.Dst], &addrs, pmask, size)
			done, n := s.dp.TexFetch(now, sectors)
			w.setRegReady(in.Dst, done, depLong)
			sp.texQueue.Push(done)
			return max0(n-1) / 4, uint64(max1(n / 2))
		default: // ATOM, RED: strict lane order, one read-modify-write each
			ops := int(popcount(pmask))
			contention := mem.MaxContention(&addrs, pmask)
			vals, cmps := w.row(in.Srcs[1]), w.row(in.Srcs[2])
			for m := pmask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				old := s.storage.Read(addrs[lane], size)
				val := vals[lane]
				var nv uint64
				switch in.Atom {
				case isa.AtomAdd:
					nv = uint64(int64(old) + int64(val))
				case isa.AtomMin:
					nv = old
					if int64(val) < int64(old) {
						nv = val
					}
				case isa.AtomMax:
					nv = old
					if int64(val) > int64(old) {
						nv = val
					}
				case isa.AtomExch:
					nv = val
				case isa.AtomAnd:
					nv = old & val
				case isa.AtomOr:
					nv = old | val
				case isa.AtomCAS:
					nv = old
					if old == cmps[lane] {
						nv = val
					}
				}
				s.storage.Write(addrs[lane], nv, size)
				if in.Op == isa.OpATOM {
					w.regs[in.Dst][lane] = old
				}
			}
			done, _ := s.dp.Atomic(now, sectors, ops, contention)
			if in.Op == isa.OpATOM {
				w.setRegReady(in.Dst, done, depLong)
			}
			w.storesPending = append(w.storesPending, done)
			sp.lgQueue.Push(done)
			return max0(ops-1) / 4, uint64(max1(ops / 2))
		}

	case isa.OpLDS, isa.OpSTS:
		var addrs [32]uint64
		w.laneAddrs(&addrs, in, pmask)
		degree := mem.BankConflictDegree(&addrs, pmask, size)
		if degree > 1 {
			s.ctr.SharedBankConflicts += uint64(degree - 1)
		}
		done := now + uint64(spec.SharedLatency) + uint64(max0(degree-1))
		if in.Op == isa.OpLDS {
			s.ctr.SharedLoads++
			dst := &w.regs[in.Dst]
			for m := pmask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				dst[lane] = w.block.sharedRead(addrs[lane], size)
			}
			w.setRegReady(in.Dst, done, depShort)
		} else {
			s.ctr.SharedStores++
			src := w.row(in.Srcs[1])
			for m := pmask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				w.block.sharedWrite(addrs[lane], src[lane], size)
			}
			w.storesPending = append(w.storesPending, done)
		}
		sp.mioQueue.Push(done)
		return max0(degree - 1), uint64(degree)

	case isa.OpLDC:
		// Per-lane offsets support indexed constant reads; the IMC works in
		// 64-byte lines. At most 32 active lanes means at most 32 unique
		// lines, so a fixed array avoids the per-issue allocation. With no
		// index register every lane reads c[Imm]: the first active lane does
		// the bank read and the IMC lookup for all of them.
		var lines [32]uint64
		nlines := 0
		done := now
		anyMiss := false
		base, dst := w.row(in.Srcs[0]), &w.regs[in.Dst]
		lanes := pmask
		if in.Srcs[0] == isa.RZ {
			lanes &= -lanes
		}
		for m := lanes; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			off := int64(base[lane]) + in.Imm
			dst[lane] = s.constBank.Read(off, size)
			line := uint64(off) / 64
			dup := false
			for _, l := range lines[:nlines] {
				if l == line {
					dup = true
					break
				}
			}
			if !dup {
				lines[nlines] = line
				nlines++
				dn, hit := s.dp.ConstLoad(now, int64(line*64))
				if !hit {
					anyMiss = true
				}
				done = maxU64(done, dn)
			}
		}
		if rest := pmask &^ lanes; rest != 0 {
			v := dst[bits.TrailingZeros32(lanes)&31]
			for ; rest != 0; rest &= rest - 1 {
				dst[bits.TrailingZeros32(rest)&31] = v
			}
		}
		kind := depFixed
		if anyMiss {
			kind = depIMC
		}
		w.setRegReady(in.Dst, done, kind)
		return max0(nlines - 1), uint64(max1(nlines))
	}
	panic(fmt.Sprintf("sm: unhandled memory op %s", in.Op))
}

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

func max1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}
