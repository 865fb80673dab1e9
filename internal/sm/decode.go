package sm

import (
	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// Decode computes, once per (program, device), every piece of issue
// metadata that own and issue would otherwise rederive per instruction: the
// execution class that selects issue's semantics, the execution pipe and its
// throttle classification, the front-end queue that gates issue, the
// compacted non-RZ source-register list for the scoreboard, the guard and
// read predicates, the initiation interval and dispatch occupancy, the
// fixed-latency completion time, and whether the static register operands
// collide in a register-file bank. All of these are pure functions of the
// instruction and the GPU spec, so hoisting them out of the per-instruction
// path cannot change any simulation result — only host time. A device's SMs
// share its spec, so they share one read-only table per program (Programs).

// queue class an instruction must find non-full before issuing.
const (
	queueNone uint8 = iota
	queueLG
	queueMIO
	queueTEX
)

// A gate is what a warp whose own state is settled still waits on: the
// execution pipe of its next instruction and the queue in front of it. There
// is one per pipe — its number is the pipe's — plus gateLDC: a constant load
// occupies the LSU but takes no LG-queue entry.
const (
	gateLDC  = isa.NumPipes
	numGates = isa.NumPipes + 1
)

// gatePipe is the execution pipe behind gate g.
func gatePipe(g int) isa.Pipe {
	if g == gateLDC {
		return isa.PipeLSU
	}
	return isa.Pipe(g)
}

// An execution class is what issue does with an instruction, decided once at
// decode: opcodes with semantics of their own first, then ALU/FMA/FP64
// arithmetic and memory operations by pipe. The classes below classEXIT are
// those whose issue leaves the warp's next classification to the warp alone:
// they do not exit, join a barrier or raise a fence (see issueReady).
const (
	classNOP uint8 = iota
	classS2R
	classMOV32
	classMOV
	classSEL
	classVOTE
	classSHFL
	classSFU
	classSETP
	classALU // ALU, FMA and FP64 arithmetic
	classMem // loads, stores and atomics
	classBRA
	classNANOSLEEP
	classEXIT
	classBAR
	classMEMBAR
	classUnknown
)

// classOf is the execution class of op, whose static properties are info.
func classOf(op isa.Op, info isa.OpInfo) uint8 {
	switch op {
	case isa.OpNOP:
		return classNOP
	case isa.OpS2R:
		return classS2R
	case isa.OpMOV32:
		return classMOV32
	case isa.OpMOV:
		return classMOV
	case isa.OpSEL:
		return classSEL
	case isa.OpVOTE:
		return classVOTE
	case isa.OpSHFL:
		return classSHFL
	case isa.OpMUFU:
		return classSFU
	case isa.OpISETP, isa.OpFSETP, isa.OpDSETP:
		return classSETP
	case isa.OpBRA:
		return classBRA
	case isa.OpNANOSLEEP:
		return classNANOSLEEP
	case isa.OpEXIT:
		return classEXIT
	case isa.OpBAR:
		return classBAR
	case isa.OpMEMBAR:
		return classMEMBAR
	}
	switch {
	case info.Pipe == isa.PipeALU || info.Pipe == isa.PipeFMA || info.Pipe == isa.PipeFP64:
		return classALU
	case info.IsLoad || info.IsStore:
		return classMem
	}
	return classUnknown
}

// decodedInstr is the per-program issue metadata for one isa.Instr. It is
// read on every own and every issue of that instruction; the original Instr
// is still consulted for functional semantics (immediates, lane operands,
// branch targets). A table of them is allocated per program and device, so
// the struct is kept at 48 bytes (TestDecodedInstrSize).
type decodedInstr struct {
	srcs  [3]isa.Reg // non-RZ GPR sources, compacted
	nsrcs uint8
	dst   isa.Reg
	// checkDst enables the WAW hazard check on dst.
	checkDst bool
	// pred is the guard predicate (PT = unpredicated); pdstRead is the
	// predicate read through PDst by SEL/VOTE (PT = none).
	pred     isa.PredReg
	pdstRead isa.PredReg

	pipe isa.Pipe
	// throttle is the warp state reported while pipe is busy.
	throttle WarpState
	// queue selects the front-end queue whose fullness blocks issue.
	queue uint8
	// gate is pipe and queue as one number: the ready set the warp joins.
	gate uint8
	// class selects issue's semantics (classNOP...classUnknown).
	class uint8

	// bankConflict marks statically colliding source registers (the operand
	// collector needs an extra cycle; see issue).
	bankConflict bool

	// ii is the pipe initiation interval; dispatch the base dispatch-unit
	// occupancy in cycles; lat the fixed-latency result completion delay for
	// the instruction's pipe (ALU/FMA/FP64/SFU — unused by memory ops).
	ii       uint64
	dispatch uint64
	lat      uint64
}

// decodedProgram is the flat decoded table for one kernel program.
type decodedProgram struct {
	instrs []decodedInstr
}

// Programs holds the decoded tables of one device's SMs, one per program,
// keyed by program identity and built the first time any of the SMs makes a
// block of it resident: workloads reuse one Program value across launches
// (and replay passes re-launch the same programs), so in steady state
// LaunchBlock performs one map lookup and no decoding. A table depends on the
// spec alone, which the SMs share and nobody edits, so an entry never goes
// stale, and it is read-only once built; one goroutine ticks a device, so the
// map needs no lock. The device clears it when it resets its SMs, so a
// long-lived device does not pin every program it ever ran.
type Programs struct {
	spec  *gpu.Spec
	cache map[*kernel.Program]*decodedProgram
}

// NewPrograms returns an empty table set for SMs of the given spec.
func NewPrograms(spec *gpu.Spec) *Programs {
	return &Programs{spec: spec, cache: make(map[*kernel.Program]*decodedProgram)}
}

// Clear drops every decoded table.
func (ps *Programs) Clear() { clear(ps.cache) }

// Len is the number of programs decoded since the last Clear.
func (ps *Programs) Len() int { return len(ps.cache) }

// decode returns the decoded table for p, building it on first use.
func (ps *Programs) decode(p *kernel.Program) *decodedProgram {
	if d, ok := ps.cache[p]; ok {
		return d
	}
	d := &decodedProgram{instrs: make([]decodedInstr, len(p.Instrs))}
	for i := range p.Instrs {
		d.instrs[i] = decodeInstr(ps.spec, &p.Instrs[i])
	}
	ps.cache[p] = d
	return d
}

// throttleState maps a busy pipe to the stall classification the warp
// reports while waiting for it.
func throttleState(p isa.Pipe) WarpState {
	switch p {
	case isa.PipeLSU:
		return StateLGThrottle
	case isa.PipeMIO:
		return StateMIOThrottle
	case isa.PipeTEX:
		return StateTEXThrottle
	default:
		return StateMathPipeThrottle
	}
}

// decodeInstr computes the issue metadata of one instruction under spec.
// Every field mirrors a computation previously performed inline in
// classify/issue; the equivalence is pinned by TestDecodeMatchesOpInfo.
func decodeInstr(spec *gpu.Spec, in *isa.Instr) decodedInstr {
	info := in.Op.Info()
	d := decodedInstr{
		dst:      in.Dst,
		checkDst: info.WritesDst,
		pred:     in.Pred,
		pdstRead: isa.PT,
		pipe:     info.Pipe,
		throttle: throttleState(info.Pipe),
		gate:     uint8(info.Pipe),
		ii:       uint64(ceilDiv(kernel.WarpSize, spec.PipeLanes[info.Pipe])),
		dispatch: 1,
		class:    classOf(in.Op, info),
	}
	d.srcs, d.nsrcs = func() ([3]isa.Reg, uint8) {
		regs, n := in.SourceRegs()
		return regs, uint8(n)
	}()
	if in.Op == isa.OpSEL || in.Op == isa.OpVOTE {
		d.pdstRead = in.PDst
	}
	switch info.Pipe {
	case isa.PipeLSU:
		if in.Op != isa.OpLDC {
			d.queue = queueLG
		} else {
			d.gate = gateLDC
		}
	case isa.PipeMIO:
		d.queue = queueMIO
	case isa.PipeTEX:
		d.queue = queueTEX
	}
	if (info.IsLoad || info.IsStore) && in.Size == 8 || info.Pipe == isa.PipeFP64 {
		d.dispatch = 2
	}
	switch info.Pipe {
	case isa.PipeFMA:
		d.lat = uint64(spec.FMALatency)
	case isa.PipeFP64:
		d.lat = uint64(spec.FP64Latency)
	case isa.PipeSFU:
		d.lat = uint64(spec.SFULatency)
	default:
		d.lat = uint64(spec.ALULatency)
	}
	// Register-file bank collision between distinct source registers is a
	// property of the static operands alone. Identical registers in the
	// 2-source case broadcast and never conflict.
	if banks := spec.RegFileBanks; banks > 1 && info.NumSrcs >= 2 {
		seen := 0
		conflict := false
		for i := 0; i < info.NumSrcs; i++ {
			r := in.Srcs[i]
			if r == isa.RZ {
				continue
			}
			bit := 1 << (int(r) % banks)
			if seen&bit != 0 {
				conflict = true
				break
			}
			seen |= bit
		}
		if conflict && !(info.NumSrcs == 2 && in.Srcs[0] == in.Srcs[1]) {
			d.bankConflict = true
		}
	}
	return d
}

// scoreboardDec returns the latest-ready operand of a decoded instruction —
// among its compacted sources, the WAW destination and the read predicates —
// with its dependency class.
func (w *warp) scoreboardDec(d *decodedInstr) (uint64, depKind) {
	var ready uint64
	kind := depNone
	for i := 0; i < int(d.nsrcs); i++ {
		r := d.srcs[i]
		if int(r) < len(w.regReady) && w.regReady[r] > ready {
			ready = w.regReady[r]
			kind = w.regDep[r]
		}
	}
	if d.checkDst {
		if r := d.dst; r != isa.RZ && int(r) < len(w.regReady) && w.regReady[r] > ready {
			ready = w.regReady[r]
			kind = w.regDep[r]
		}
	}
	if d.pred != isa.PT && w.predReady[d.pred] > ready {
		ready = w.predReady[d.pred]
		kind = depFixed
	}
	if d.pdstRead != isa.PT && w.predReady[d.pdstRead] > ready {
		ready = w.predReady[d.pdstRead]
		kind = depFixed
	}
	return ready, kind
}
