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
		// only — see DESIGN.md).
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

	switch {
	case in.Op == isa.OpNOP:
		// nothing

	case in.Op == isa.OpS2R:
		s.execS2R(w, in, pmask, now)
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case in.Op == isa.OpMOV32:
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = uint64(in.Imm)
			}
		}
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case in.Op == isa.OpMOV:
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = w.readReg(in.Srcs[0], lane)
			}
		}
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case in.Op == isa.OpSEL:
		sel := w.predMask(in.PDst, false)
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) == 0 {
				continue
			}
			if sel&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = w.readReg(in.Srcs[0], lane)
			} else {
				w.regs[in.Dst][lane] = w.readReg(in.Srcs[1], lane)
			}
		}
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case in.Op == isa.OpVOTE:
		ballot := uint64(w.preds[in.PDst] & pmask)
		if in.PDst == isa.PT {
			ballot = uint64(pmask)
		}
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = ballot
			}
		}
		w.setRegReady(in.Dst, now+uint64(spec.ALULatency), depFixed)

	case in.Op == isa.OpSHFL:
		var snap [32]uint64
		for lane := 0; lane < 32; lane++ {
			snap[lane] = w.readReg(in.Srcs[0], lane)
		}
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = snap[lane^int(in.Imm&31)]
			}
		}
		done := now + uint64(spec.SharedLatency)/2
		w.setRegReady(in.Dst, done, depShort)
		sp.mioQueue.Push(done)

	case in.Op == isa.OpMUFU:
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) == 0 {
				continue
			}
			x := f32val(w.readReg(in.Srcs[0], lane))
			var r float32
			switch in.Mufu {
			case isa.MufuRCP:
				r = 1 / x
			case isa.MufuRSQ:
				r = float32(1 / math.Sqrt(float64(x)))
			case isa.MufuSQRT:
				r = float32(math.Sqrt(float64(x)))
			case isa.MufuSIN:
				r = float32(math.Sin(float64(x)))
			case isa.MufuCOS:
				r = float32(math.Cos(float64(x)))
			case isa.MufuLG2:
				r = float32(math.Log2(float64(x)))
			case isa.MufuEX2:
				r = float32(math.Exp2(float64(x)))
			}
			w.regs[in.Dst][lane] = f32bits(r)
		}
		w.setRegReady(in.Dst, now+uint64(spec.SFULatency), depFixed)

	case in.Op == isa.OpISETP || in.Op == isa.OpFSETP || in.Op == isa.OpDSETP:
		s.execSetp(w, in, pmask, now)

	case d.pipe == isa.PipeALU || d.pipe == isa.PipeFMA || d.pipe == isa.PipeFP64:
		s.execALU(w, in, pmask, now, d.lat)

	case d.isMem:
		extraIssues, pipeBusy := s.execMemory(sp, w, in, pmask, now)
		s.ctr.InstIssued += uint64(extraIssues)
		if pipeBusy > ii {
			ii = pipeBusy
		}
		// Replayed issues occupy the dispatch unit for real cycles, so the
		// subpartition's issue rate (and hence issued IPC) stays bounded by
		// its dispatch bandwidth.
		dispatchCycles += uint64(extraIssues)

	case in.Op == isa.OpBRA:
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

	case in.Op == isa.OpEXIT:
		w.exited |= pmask

	case in.Op == isa.OpBAR:
		w.atBarrier = true
		w.block.arrived++
		// The release check runs after advancing the PC so the warp resumes
		// past the barrier.

	case in.Op == isa.OpMEMBAR:
		w.membarPending = true

	case in.Op == isa.OpNANOSLEEP:
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
	if in.Op == isa.OpBAR {
		s.checkBarrier(w.block)
	}

	sp.pipeFree[d.pipe] = now + ii
	sp.dispatchFree = now + dispatchCycles
}

func (s *SM) execS2R(w *warp, in *isa.Instr, pmask uint32, now uint64) {
	blk := w.block
	grid := blk.launch.Grid.Norm()
	block := blk.launch.Block.Norm()
	for lane := 0; lane < 32; lane++ {
		if pmask&(1<<lane) == 0 {
			continue
		}
		var v int64
		switch isa.SpecialReg(in.Imm) {
		case isa.SRTidX:
			x, _, _ := blk.threadID(w.warpInBlock, lane)
			v = x
		case isa.SRTidY:
			_, y, _ := blk.threadID(w.warpInBlock, lane)
			v = y
		case isa.SRTidZ:
			_, _, z := blk.threadID(w.warpInBlock, lane)
			v = z
		case isa.SRCtaIDX:
			v = blk.ctaid[0]
		case isa.SRCtaIDY:
			v = blk.ctaid[1]
		case isa.SRCtaIDZ:
			v = blk.ctaid[2]
		case isa.SRNTidX:
			v = int64(block.X)
		case isa.SRNTidY:
			v = int64(block.Y)
		case isa.SRNTidZ:
			v = int64(block.Z)
		case isa.SRNCtaIDX:
			v = int64(grid.X)
		case isa.SRNCtaIDY:
			v = int64(grid.Y)
		case isa.SRNCtaIDZ:
			v = int64(grid.Z)
		case isa.SRLaneID:
			v = int64(lane)
		case isa.SRWarpID:
			v = int64(w.warpInBlock)
		case isa.SRClockLo:
			v = int64(now)
		}
		w.regs[in.Dst][lane] = uint64(v)
	}
}

// readReg returns a lane's register value, with RZ reading zero.
func (w *warp) readReg(r isa.Reg, lane int) uint64 {
	if r == isa.RZ {
		return 0
	}
	return w.regs[r][lane]
}

// intOperandB implements the uniform "operand B = Srcs[1] + Imm" rule for
// integer operations, which gives immediate forms when Srcs[1] is RZ.
func (w *warp) intOperandB(in *isa.Instr, lane int) int64 {
	return int64(w.readReg(in.Srcs[1], lane)) + in.Imm
}

func (s *SM) execSetp(w *warp, in *isa.Instr, pmask uint32, now uint64) {
	var result uint32
	for lane := 0; lane < 32; lane++ {
		if pmask&(1<<lane) == 0 {
			continue
		}
		var cmp int // -1, 0, +1
		switch in.Op {
		case isa.OpISETP:
			a := int64(w.readReg(in.Srcs[0], lane))
			b := w.intOperandB(in, lane)
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
		case isa.OpFSETP:
			a := f32val(w.readReg(in.Srcs[0], lane))
			b := f32val(w.readReg(in.Srcs[1], lane))
			if in.Srcs[1] == isa.RZ && in.Imm != 0 {
				b = f32val(uint64(in.Imm))
			}
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
		case isa.OpDSETP:
			a := f64val(w.readReg(in.Srcs[0], lane))
			b := f64val(w.readReg(in.Srcs[1], lane))
			if in.Srcs[1] == isa.RZ && in.Imm != 0 {
				b = f64val(uint64(in.Imm))
			}
			switch {
			case a < b:
				cmp = -1
			case a > b:
				cmp = 1
			}
		}
		var t bool
		switch in.Cmp {
		case isa.CmpEQ:
			t = cmp == 0
		case isa.CmpNE:
			t = cmp != 0
		case isa.CmpLT:
			t = cmp < 0
		case isa.CmpLE:
			t = cmp <= 0
		case isa.CmpGT:
			t = cmp > 0
		case isa.CmpGE:
			t = cmp >= 0
		}
		if t {
			result |= 1 << lane
		}
	}
	w.setPred(in.PDst, pmask, result)
	lat := s.spec.ALULatency
	if in.Op == isa.OpFSETP {
		lat = s.spec.FMALatency
	} else if in.Op == isa.OpDSETP {
		lat = s.spec.FP64Latency
	}
	if in.PDst != isa.PT {
		w.predReady[in.PDst] = now + uint64(lat)
	}
}

func (s *SM) execALU(w *warp, in *isa.Instr, pmask uint32, now uint64, lat uint64) {
	for lane := 0; lane < 32; lane++ {
		if pmask&(1<<lane) == 0 {
			continue
		}
		var res uint64
		switch in.Op {
		case isa.OpIADD:
			res = uint64(int64(w.readReg(in.Srcs[0], lane)) + w.intOperandB(in, lane))
		case isa.OpISUB:
			res = uint64(int64(w.readReg(in.Srcs[0], lane)) - w.intOperandB(in, lane))
		case isa.OpIMUL:
			res = uint64(int64(w.readReg(in.Srcs[0], lane)) * w.intOperandB(in, lane))
		case isa.OpIMAD:
			res = uint64(int64(w.readReg(in.Srcs[0], lane))*int64(w.readReg(in.Srcs[1], lane)) +
				int64(w.readReg(in.Srcs[2], lane)) + in.Imm)
		case isa.OpISHL:
			res = uint64(int64(w.readReg(in.Srcs[0], lane)) << uint(w.intOperandB(in, lane)&63))
		case isa.OpISHR:
			res = uint64(int64(w.readReg(in.Srcs[0], lane)) >> uint(w.intOperandB(in, lane)&63))
		case isa.OpIAND:
			res = w.readReg(in.Srcs[0], lane) & uint64(w.intOperandB(in, lane))
		case isa.OpIOR:
			res = w.readReg(in.Srcs[0], lane) | uint64(w.intOperandB(in, lane))
		case isa.OpIXOR:
			res = w.readReg(in.Srcs[0], lane) ^ uint64(w.intOperandB(in, lane))
		case isa.OpIMIN:
			a, b := int64(w.readReg(in.Srcs[0], lane)), w.intOperandB(in, lane)
			if b < a {
				a = b
			}
			res = uint64(a)
		case isa.OpIMAX:
			a, b := int64(w.readReg(in.Srcs[0], lane)), w.intOperandB(in, lane)
			if b > a {
				a = b
			}
			res = uint64(a)
		case isa.OpPOPC:
			res = uint64(bits.OnesCount64(w.readReg(in.Srcs[0], lane)))
		case isa.OpFADD:
			res = f32bits(f32val(w.readReg(in.Srcs[0], lane)) + w.f32OperandB(in, lane))
		case isa.OpFMUL:
			res = f32bits(f32val(w.readReg(in.Srcs[0], lane)) * w.f32OperandB(in, lane))
		case isa.OpFFMA:
			res = f32bits(f32val(w.readReg(in.Srcs[0], lane))*f32val(w.readReg(in.Srcs[1], lane)) +
				f32val(w.readReg(in.Srcs[2], lane)))
		case isa.OpFMIN:
			res = f32bits(float32(math.Min(float64(f32val(w.readReg(in.Srcs[0], lane))), float64(w.f32OperandB(in, lane)))))
		case isa.OpFMAX:
			res = f32bits(float32(math.Max(float64(f32val(w.readReg(in.Srcs[0], lane))), float64(w.f32OperandB(in, lane)))))
		case isa.OpI2F:
			res = f32bits(float32(int64(w.readReg(in.Srcs[0], lane))))
		case isa.OpF2I:
			res = uint64(int64(f32val(w.readReg(in.Srcs[0], lane))))
		case isa.OpDADD:
			res = f64bits(f64val(w.readReg(in.Srcs[0], lane)) + w.f64OperandB(in, lane))
		case isa.OpDMUL:
			res = f64bits(f64val(w.readReg(in.Srcs[0], lane)) * w.f64OperandB(in, lane))
		case isa.OpDFMA:
			res = f64bits(f64val(w.readReg(in.Srcs[0], lane))*f64val(w.readReg(in.Srcs[1], lane)) +
				f64val(w.readReg(in.Srcs[2], lane)))
		default:
			panic(fmt.Sprintf("sm: unhandled ALU op %s", in.Op))
		}
		w.regs[in.Dst][lane] = res
	}
	// lat is the decoded pipe latency (FMA/FP64/ALU per the spec).
	w.setRegReady(in.Dst, now+lat, depFixed)
}

func (w *warp) f32OperandB(in *isa.Instr, lane int) float32 {
	if in.Srcs[1] == isa.RZ && in.Imm != 0 {
		return f32val(uint64(in.Imm))
	}
	return f32val(w.readReg(in.Srcs[1], lane))
}

func (w *warp) f64OperandB(in *isa.Instr, lane int) float64 {
	if in.Srcs[1] == isa.RZ && in.Imm != 0 {
		return f64val(uint64(in.Imm))
	}
	return f64val(w.readReg(in.Srcs[1], lane))
}

// execMemory handles every load/store/atomic. It returns the number of
// extra (replay) issues and the LSU/MIO occupancy in cycles.
func (s *SM) execMemory(sp *subpart, w *warp, in *isa.Instr, pmask uint32, now uint64) (extraIssues int, pipeBusy uint64) {
	spec := s.spec
	size := int(in.Size)

	switch in.Op {
	case isa.OpLDG, isa.OpSTG, isa.OpATOM, isa.OpRED:
		var addrs [32]uint64
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				addrs[lane] = uint64(int64(w.readReg(in.Srcs[0], lane)) + in.Imm)
			}
		}
		sectors := mem.CoalesceSectorsInto(s.sectorScratch[:0], &addrs, pmask, size, uint64(spec.SectorSize))
		s.sectorScratch = sectors // keep the (possibly re-grown) backing
		switch in.Op {
		case isa.OpLDG:
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) != 0 {
					w.regs[in.Dst][lane] = s.storage.Read(addrs[lane], size)
				}
			}
			done, n := s.dp.GlobalLoad(now, sectors)
			w.setRegReady(in.Dst, done, depLong)
			sp.lgQueue.Push(done)
			return (max0(n - 1)) / 4, uint64(max1(n / 2))
		case isa.OpSTG:
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) != 0 {
					s.storage.Write(addrs[lane], w.readReg(in.Srcs[1], lane), size)
				}
			}
			posted, visible, n := s.dp.GlobalStore(now, sectors)
			w.storesPending = append(w.storesPending, posted)
			w.fenceUntil = maxU64(w.fenceUntil, visible)
			sp.lgQueue.Push(posted)
			return (max0(n - 1)) / 4, uint64(max1(n / 2))
		default: // ATOM, RED
			ops := int(popcount(pmask))
			contention := mem.MaxContention(&addrs, pmask)
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) == 0 {
					continue
				}
				old := s.storage.Read(addrs[lane], size)
				val := w.readReg(in.Srcs[1], lane)
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
					if old == uint64(int64(w.readReg(in.Srcs[2], lane))) {
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
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				addrs[lane] = uint64(int64(w.readReg(in.Srcs[0], lane)) + in.Imm)
			}
		}
		degree := mem.BankConflictDegree(&addrs, pmask, size)
		if degree > 1 {
			s.ctr.SharedBankConflicts += uint64(degree - 1)
		}
		done := now + uint64(spec.SharedLatency) + uint64(max0(degree-1))
		if in.Op == isa.OpLDS {
			s.ctr.SharedLoads++
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) != 0 {
					w.regs[in.Dst][lane] = w.block.sharedRead(addrs[lane], size)
				}
			}
			w.setRegReady(in.Dst, done, depShort)
		} else {
			s.ctr.SharedStores++
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) != 0 {
					w.block.sharedWrite(addrs[lane], w.readReg(in.Srcs[1], lane), size)
				}
			}
			w.storesPending = append(w.storesPending, done)
		}
		sp.mioQueue.Push(done)
		return max0(degree - 1), uint64(degree)

	case isa.OpLDL, isa.OpSTL:
		var addrs [32]uint64
		bt := w.block.launch.BlockThreads()
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) == 0 {
				continue
			}
			off := uint64(int64(w.readReg(in.Srcs[0], lane)) + in.Imm)
			gtid := uint64(w.block.blockLinear*bt + w.warpInBlock*kernel.WarpSize + lane)
			// Local memory is interleaved per-word so that same-offset
			// accesses across a warp coalesce, as the hardware arranges.
			addrs[lane] = s.localBase + (off/uint64(size))*uint64(size)*uint64(s.totalThreads) + gtid*uint64(size)
		}
		sectors := mem.CoalesceSectorsInto(s.sectorScratch[:0], &addrs, pmask, size, uint64(spec.SectorSize))
		s.sectorScratch = sectors
		if in.Op == isa.OpLDL {
			for lane := 0; lane < 32; lane++ {
				if pmask&(1<<lane) != 0 {
					w.regs[in.Dst][lane] = s.storage.Read(addrs[lane], size)
				}
			}
			done, n := s.dp.GlobalLoad(now, sectors)
			w.setRegReady(in.Dst, done, depLong)
			sp.lgQueue.Push(done)
			return max0(n-1) / 4, uint64(max1(n / 2))
		}
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				s.storage.Write(addrs[lane], w.readReg(in.Srcs[1], lane), size)
			}
		}
		posted, visible, n := s.dp.GlobalStore(now, sectors)
		w.storesPending = append(w.storesPending, posted)
		w.fenceUntil = maxU64(w.fenceUntil, visible)
		sp.lgQueue.Push(posted)
		return max0(n-1) / 4, uint64(max1(n / 2))

	case isa.OpLDC:
		// Per-lane offsets support indexed constant reads; the IMC works in
		// 64-byte lines. At most 32 active lanes means at most 32 unique
		// lines, so a fixed array avoids the per-issue allocation.
		var lines [32]uint64
		nlines := 0
		done := now
		anyMiss := false
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) == 0 {
				continue
			}
			off := int64(w.readReg(in.Srcs[0], lane)) + in.Imm
			w.regs[in.Dst][lane] = s.constBank.Read(off, size)
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
		kind := depFixed
		if anyMiss {
			kind = depIMC
		}
		w.setRegReady(in.Dst, done, kind)
		return max0(nlines - 1), uint64(max1(nlines))

	case isa.OpTEX:
		var addrs [32]uint64
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				addrs[lane] = uint64(int64(w.readReg(in.Srcs[0], lane)) + in.Imm)
			}
		}
		sectors := mem.CoalesceSectorsInto(s.sectorScratch[:0], &addrs, pmask, size, uint64(spec.SectorSize))
		s.sectorScratch = sectors
		for lane := 0; lane < 32; lane++ {
			if pmask&(1<<lane) != 0 {
				w.regs[in.Dst][lane] = s.storage.Read(addrs[lane], size)
			}
		}
		done, n := s.dp.TexFetch(now, sectors)
		w.setRegReady(in.Dst, done, depLong)
		sp.texQueue.Push(done)
		return max0(n-1) / 4, uint64(max1(n / 2))
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
