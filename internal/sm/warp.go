package sm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// depKind classifies the producer of a pending register value, so that a
// consumer stalled on it can be attributed to the right scoreboard state.
type depKind uint8

const (
	depNone  depKind = iota
	depFixed         // ALU/FMA/FP64/SFU result (fixed latency) -> stalled_wait
	depLong          // L1TEX load (global/local/texture)       -> long_scoreboard
	depShort         // MIO operation (shared, shuffle)         -> short_scoreboard
	depIMC           // immediate-constant miss                 -> imc_miss
)

func (k depKind) stallState() WarpState {
	switch k {
	case depLong:
		return StateLongScoreboard
	case depShort:
		return StateShortScoreboard
	case depIMC:
		return StateIMCMiss
	default:
		return StateWait
	}
}

// stackEntry is one level of the SIMT reconvergence stack: execute from pc
// with mask until pc reaches rpc (the immediate post-dominator), then pop.
// The bottom entry has rpc == -1 and never pops.
type stackEntry struct {
	pc   int
	rpc  int
	mask uint32
}

// warp is one resident warp context.
type warp struct {
	subp, slot  int // subpartition and slot within it: the warp's wake-table entry
	block       *blockCtx
	warpInBlock int
	launchSeq   uint64 // global age for greedy-then-oldest scheduling

	members uint32 // lanes backed by real threads (last warp may be partial)
	exited  uint32
	stack   []stackEntry

	regs  [][32]uint64 // [reg][lane]
	preds [8]uint32    // index 0 is PT (unused; PT handled specially)

	regReady  []uint64
	regDep    []depKind
	predReady [8]uint64

	// nextEligible delays issue until the given cycle, classified as
	// eligibleReason while waiting (branch resolving, sleeping, misc).
	nextEligible   uint64
	eligibleReason WarpState

	atBarrier     bool
	membarPending bool

	// storesPending holds posted-completion cycles of outstanding stores
	// (post-EXIT drain); fenceUntil is the memory-order visibility horizon
	// MEMBAR waits on.
	storesPending []uint64
	fenceUntil    uint64

	// Instruction supply: fetchedLine is 1+line index currently in the
	// warp's instruction buffer (0 = nothing fetched yet).
	fetchedLine uint64
	ifetchReady uint64

	// state and since are the warp's open accounting interval: it has been in
	// state for the cycles [since, now), none of them added to
	// Counters.WarpStateCycles yet (see SM.enter). While the wake table lets
	// Tick skip the warp, the interval simply grows with the clock. A warp in
	// a ready set has none: the set is charged by count, cycle by cycle.
	state WarpState
	since uint64

	finished bool
}

// reset makes w the initial context of a warp, whatever it held before: every
// field is rewritten, and of the old value only the slices' backing arrays
// survive, re-sliced to this kernel's register count and zeroed. A recycled
// warp is thereby indistinguishable from a freshly allocated one
// (TestRecycledWarpIsFresh). The fields are assigned one by one: a struct
// literal would be built whole and copied over the old value.
func (w *warp) reset(subp, slot, warpInBlock int, blk *blockCtx, members uint32, numRegs int, seq uint64) {
	w.subp, w.slot, w.block, w.warpInBlock, w.launchSeq = subp, slot, blk, warpInBlock, seq
	w.members, w.exited = members, 0
	w.stack = append(w.stack[:0], stackEntry{pc: 0, rpc: -1, mask: members})
	w.regs = zeroed(w.regs, numRegs)
	w.preds = [8]uint32{}
	w.regReady = zeroed(w.regReady, numRegs)
	w.regDep = zeroed(w.regDep, numRegs)
	w.predReady = [8]uint64{}
	w.nextEligible, w.eligibleReason = 0, 0
	w.atBarrier, w.membarPending = false, false
	w.storesPending, w.fenceUntil = w.storesPending[:0], 0
	w.fetchedLine, w.ifetchReady = 0, 0
	w.state, w.since = 0, 0
	w.finished = false
}

// zeroed returns n zero elements, in s's backing array when it is big enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// top returns the active stack entry. Callers must ensure the stack is
// non-empty (it always is until the warp finishes).
func (w *warp) top() *stackEntry { return &w.stack[len(w.stack)-1] }

// activeMask is the set of lanes executing at the current stack top.
func (w *warp) activeMask() uint32 { return w.top().mask &^ w.exited }

// syncStack pops completed regions: entries whose pc reached their
// reconvergence point and entries with no live lanes left. It sets finished
// when every member lane has exited.
func (w *warp) syncStack() {
	for {
		if w.members&^w.exited == 0 {
			w.finished = true
			return
		}
		top := w.top()
		if top.mask&^w.exited == 0 && len(w.stack) > 1 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.rpc >= 0 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// predMask evaluates a guard predicate over all lanes.
func (w *warp) predMask(p isa.PredReg, neg bool) uint32 {
	var m uint32
	if p == isa.PT {
		m = 0xFFFFFFFF
	} else {
		m = w.preds[p]
	}
	if neg {
		m = ^m
	}
	return m
}

// setPred assigns predicate p in the given lanes to the bits of value.
func (w *warp) setPred(p isa.PredReg, lanes uint32, value uint32) {
	if p == isa.PT {
		return
	}
	w.preds[p] = (w.preds[p] &^ lanes) | (value & lanes)
}

// setRegReady records the completion time and producer class of a register.
func (w *warp) setRegReady(r isa.Reg, ready uint64, kind depKind) {
	if r == isa.RZ {
		return
	}
	w.regReady[r] = ready
	w.regDep[r] = kind
}

// drainStores drops completed stores and returns the number still pending.
func (w *warp) drainStores(now uint64) int {
	i := 0
	for _, d := range w.storesPending {
		if d > now {
			w.storesPending[i] = d
			i++
		}
	}
	w.storesPending = w.storesPending[:i]
	return i
}

// lastStoreDone returns the latest completion among pending stores.
func (w *warp) lastStoreDone() uint64 {
	var m uint64
	for _, d := range w.storesPending {
		if d > m {
			m = d
		}
	}
	return m
}

func popcount(m uint32) uint64 { return uint64(bits.OnesCount32(m)) }

// blockCtx is one resident thread block (CTA): geometry, shared memory and
// barrier bookkeeping.
type blockCtx struct {
	ctaid       [3]int64
	blockLinear int
	launch      *kernel.Launch
	dec         *decodedProgram // the device's decoded table for launch.Program
	shared      []byte
	liveWarps   int
	remaining   int // warps not yet fully drained
	arrived     int // warps waiting at the current barrier
	warps       []*warp
}

// inShared reports whether [addr, addr+size) lies inside the block's shared
// memory. A negative address computed by the kernel arrives as a large one,
// so the test must not wrap.
func (b *blockCtx) inShared(addr uint64, size int) bool {
	n := uint64(len(b.shared))
	return addr <= n && uint64(size) <= n-addr
}

func (b *blockCtx) sharedRead(addr uint64, size int) uint64 {
	if !b.inShared(addr, size) {
		panic(fmt.Sprintf("sm: shared read of %d bytes at 0x%x outside %d-byte block allocation (kernel %s)",
			size, addr, len(b.shared), b.launch.Program.Name))
	}
	if size == 8 {
		return binary.LittleEndian.Uint64(b.shared[addr:])
	}
	return uint64(binary.LittleEndian.Uint32(b.shared[addr:]))
}

func (b *blockCtx) sharedWrite(addr uint64, v uint64, size int) {
	if !b.inShared(addr, size) {
		panic(fmt.Sprintf("sm: shared write of %d bytes at 0x%x outside %d-byte block allocation (kernel %s)",
			size, addr, len(b.shared), b.launch.Program.Name))
	}
	if size == 8 {
		binary.LittleEndian.PutUint64(b.shared[addr:], v)
		return
	}
	binary.LittleEndian.PutUint32(b.shared[addr:], uint32(v))
}

// threadID returns the (x,y,z) thread index of a lane of a warp.
func (b *blockCtx) threadID(warpInBlock, lane int) (int64, int64, int64) {
	lin := int64(warpInBlock*kernel.WarpSize + lane)
	bd := b.launch.Block.Norm()
	x := lin % int64(bd.X)
	y := (lin / int64(bd.X)) % int64(bd.Y)
	z := lin / int64(bd.X*bd.Y)
	return x, y, z
}
