package sm

import (
	"fmt"
	"math/bits"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

// subpart is one SM subpartition: a warp scheduler, a dispatch unit, one
// instance of each execution pipe and the memory instruction queues.
type subpart struct {
	warps []*warp // fixed slots, nil = free
	nres  int     // occupied slots, maintained by LaunchBlock/reapFinished

	// wakeAt is the wake table, parallel to warps: the bound returned by the
	// slot's most recent own-state classification (SM.own), 0 for a slot made
	// due by a launch, an issue or a barrier release, neverWake for a free slot,
	// a warp in a ready set and one with no bound of its own. It is the truth:
	// a slot is due at cycle now when wakeAt <= now, and until then Tick skips
	// it — the contract guarantees a re-run would return the same state and
	// mutate nothing.
	wakeAt []uint64

	// pending, parallel to warps, is the instruction the slot's warp issues
	// next, once own has found it: while the slot is filed, the bound is the
	// last thing that instruction waits for, its decode or its scoreboard, and
	// at the bound the warp is ready to issue it without being classified
	// again; while the slot is in a ready set, it is what the warp is ready to
	// issue, and its gate the set's. nil otherwise.
	pending []*decodedInstr

	// The wake index hands wakeWarps the due slots without reading the table.
	// A slot whose bound is not neverWake is filed in exactly one place (file,
	// unfile), and a bit is only ever a hint checked against wakeAt:
	//   - woken: the bound had passed when it was filed (0: a launch, an issue,
	//     a barrier release);
	//   - wheel[t%wheelSpan]: the bound t was less than wheelSpan cycles away
	//     when filed; bit b of wheelOcc is set when wheel[b] is non-empty, so
	//     the next bound is one rotate and one trailing-zero count away;
	//   - far: further away; farMin is the least such bound (neverWake when far
	//     is empty), and reaching it re-files the far slots (refileFar);
	//   - fetchWait: own found the SM's fetch port busy; the bound is the cycle
	//     the port frees, and until the port is free own would say the same.
	woken, far, fetchWait uint64
	farMin                uint64
	wheelOcc              uint64
	wheel                 [wheelSpan]uint64

	// draining holds the slots of finished warps waiting for their stores,
	// each already counted off its block's liveWarps: what reapFinished
	// visits, in slot order.
	draining uint64

	// ready[g] is the ready set of gate g, a slot bitmask: the warps whose
	// own-state checks have passed for an instruction behind that gate, and
	// which therefore wait only on what the subpartition shares — the dispatch
	// unit, the gate's pipe, its queue, the pick. They carry no accounting
	// interval: Tick decides each gate once and charges the set by popcount.
	// readyAll is the union, and bit g of gateOcc is set when ready[g] is
	// non-empty. A warp leaves its set only by issuing.
	ready    [numGates]uint64
	readyAll uint64
	gateOcc  uint16

	pipeFree     [isa.NumPipes]uint64
	dispatchFree uint64
	lgQueue      *mem.TimedQueue
	mioQueue     *mem.TimedQueue
	texQueue     *mem.TimedQueue
	lastIssued   int // slot of the most recently issued warp (GTO/LRR)
}

// wheelSpan is the number of cycles the timing wheel covers: one slot mask
// per cycle, and the occupancy of all of them in one word.
const wheelSpan = 64

func (sp *subpart) freeSlots() int { return len(sp.warps) - sp.nres }

// reset empties the subpartition — no warp in a slot, every wake-table entry
// neverWake, nothing filed, no ready set — and frees its pipes, dispatch unit
// and instruction queues. The slot tables and queues keep their backings.
// BeginLaunch resets every subpartition of every SM, so the fields are
// assigned one by one: a struct literal would be built whole and copied.
func (sp *subpart) reset() {
	clear(sp.warps)
	clear(sp.pending)
	for i := range sp.wakeAt {
		sp.wakeAt[i] = neverWake
	}
	sp.nres = 0
	sp.woken, sp.far, sp.fetchWait, sp.farMin = 0, 0, 0, neverWake
	sp.wheelOcc = 0
	clear(sp.wheel[:])
	sp.draining = 0
	clear(sp.ready[:])
	sp.readyAll, sp.gateOcc = 0, 0
	clear(sp.pipeFree[:])
	sp.dispatchFree = 0
	sp.lgQueue.Reset()
	sp.mioQueue.Reset()
	sp.texQueue.Reset()
	sp.lastIssued = 0
}

// file sets slot's bound to t and files it by its distance from now. The slot
// must not be filed anywhere else.
func (sp *subpart) file(slot int, t, now uint64) {
	sp.wakeAt[slot] = t
	bit := uint64(1) << slot
	switch {
	case t == neverWake:
	case t <= now:
		sp.woken |= bit
	case t-now < wheelSpan:
		b := t % wheelSpan
		sp.wheel[b] |= bit
		sp.wheelOcc |= 1 << b
	default:
		sp.far |= bit
		sp.farMin = min(sp.farMin, t)
	}
}

// unfile takes slot out of the index, wherever its bound is filed.
func (sp *subpart) unfile(slot int, now uint64) {
	bit := uint64(1) << slot
	t := sp.wakeAt[slot]
	sp.woken &^= bit
	sp.fetchWait &^= bit
	if b := t % wheelSpan; sp.wheel[b]&bit != 0 {
		if sp.wheel[b] &^= bit; sp.wheel[b] == 0 {
			sp.wheelOcc &^= 1 << b
		}
	}
	if sp.far&bit != 0 {
		sp.far &^= bit
		if t == sp.farMin {
			sp.refileFar(now) // keeps farMin exact
		}
	}
}

// refileFar files every far slot again as of now: those whose bound has come
// within wheelSpan cycles move to the wheel (or to woken, when due now), the
// rest stay far under a recomputed farMin.
func (sp *subpart) refileFar(now uint64) {
	far := sp.far
	sp.far, sp.farMin = 0, neverWake
	for ; far != 0; far &= far - 1 {
		slot := bits.TrailingZeros64(far)
		sp.file(slot, sp.wakeAt[slot], now)
	}
}

// nextBound is the earliest bound filed in the subpartition after a pass at
// now — the minimum over the wake table of what the pass left — given that
// the port the fetch waiters wait on frees at fetchBusy.
func (sp *subpart) nextBound(now, fetchBusy uint64) uint64 {
	next := sp.farMin
	if sp.wheelOcc != 0 {
		// Every wheel bound lies in [now+1, now+wheelSpan-1]: rotate bit
		// (now+1)%wheelSpan to the bottom and count.
		r := bits.RotateLeft64(sp.wheelOcc, -int((now+1)%wheelSpan))
		next = min(next, now+1+uint64(bits.TrailingZeros64(r)))
	}
	if sp.fetchWait != 0 {
		next = min(next, fetchBusy)
	}
	return next
}

// SM is one Streaming Multiprocessor.
type SM struct {
	spec      *gpu.Spec
	id        int
	dp        *mem.DataPath
	icache    *mem.Cache
	storage   *mem.Storage
	constBank *mem.ConstantBank
	subparts  []subpart
	progs     *Programs // the device's decoded tables
	lrr       bool      // spec.SchedulingPolicy == "lrr", decided once in New
	lineShift uint      // log2 spec.LineSize (a power of two, gpu.Spec.Validate)

	cycle     uint64
	fetchBusy uint64
	launchSeq uint64

	// fetchRefused is set by ensureFetched when it turns a warp away because
	// the fetch port is busy, and read and cleared by wakeWarps after own. The
	// reference engine leaves it set; BeginLaunch clears it.
	fetchRefused bool

	// Fast-forward bookkeeping. nextWakeup is the bound computed by the
	// most recent Tick: the earliest cycle at which the next Tick can do
	// anything other than exactly repeat the last one (see NextWakeup).
	// tickEvent is set by own when it mutates cross-warp state (barrier
	// release on warp death) and forces the bound to collapse to the
	// current cycle. residencyVer counts resource-occupancy changes so
	// the device's dispatcher can skip SMs whose last rejection is still
	// current.
	nextWakeup   uint64
	tickEvent    bool
	residencyVer uint64

	// noWakeList selects the reference engine (SetReference): no wake table,
	// no ready sets, every resident warp classified from scratch every tick by
	// classify.
	noWakeList bool

	// groupCharge is what the last Tick charged the ready sets for gates found
	// closed, in warps per state, and groupCharged whether it charged any. A
	// quiet tick repeats until NextWakeup, so AdvanceTo charges it again for
	// every cycle it skips.
	groupCharge  [NumWarpStates]uint32
	groupCharged bool

	// drainingWarps counts the slots of every subpartition's draining mask.
	drainingWarps int

	// Launch-wide context for local-memory addressing, set by BeginLaunch.
	localBase    uint64
	totalThreads int

	// sectorScratch backs CoalesceSectorsInto in the issue path (no
	// allocation in the cycle loop); resRow and immRow are execALU's result
	// row for a partial issue mask and the row of an immediate operand B.
	sectorScratch  []uint64
	resRow, immRow [32]uint64

	// Retired block contexts and their warps, filled by retireBlock and
	// drained by LaunchBlock, which resets whatever it takes (warp.reset), so
	// nothing of a retired block is visible to the next one. Reset keeps
	// them and drops whatever is still resident.
	freeBlocks []*blockCtx
	freeWarps  []*warp

	// Occupancy accounting.
	residentBlocks  int
	residentThreads int
	residentWarps   int
	residentRegs    int
	residentShared  int
	activeSubps     int // subpartitions with at least one resident warp

	// ctr holds every closed accounting interval; the open interval of each
	// resident warp is added by Counters.
	ctr Counters
}

// New builds an SM around the device-shared memory system, global storage,
// constant bank and decoded tables: it allocates the SM's backings and leaves
// every other field to Reset. The spec is validated by its owner
// (gpu.Spec.Validate bounds WarpSlotsPerSubpartition by the width of a
// ready-set mask); progs must be built for the same spec.
func New(spec *gpu.Spec, id int, ms *mem.MemSys, storage *mem.Storage, constBank *mem.ConstantBank, progs *Programs) *SM {
	nsp, slots := spec.SubpartitionsPerSM, spec.WarpSlotsPerSubpartition
	s := &SM{
		spec:          spec,
		id:            id,
		dp:            mem.NewDataPath(spec, ms),
		icache:        mem.NewCache("L1I", spec.ICacheSize, spec.ICacheWays, spec.LineSize, spec.LineSize),
		storage:       storage,
		constBank:     constBank,
		subparts:      make([]subpart, nsp),
		progs:         progs,
		sectorScratch: make([]uint64, 0, 64),
	}
	// One backing per slot table for the whole SM, carved per subpartition: a
	// device build pays three allocations per SM however many subpartitions.
	warps := make([]*warp, nsp*slots)
	wakeAt := make([]uint64, nsp*slots)
	pending := make([]*decodedInstr, nsp*slots)
	for i := range s.subparts {
		lo, hi := i*slots, (i+1)*slots
		s.subparts[i] = subpart{
			warps:    warps[lo:hi:hi],
			wakeAt:   wakeAt[lo:hi:hi],
			pending:  pending[lo:hi:hi],
			lgQueue:  mem.NewTimedQueue(spec.LGQueueDepth),
			mioQueue: mem.NewTimedQueue(spec.MIOQueueDepth),
			texQueue: mem.NewTimedQueue(spec.TEXQueueDepth),
		}
	}
	s.Reset()
	return s
}

// Reset puts the SM, idle or busy, in the state New leaves it in: nothing
// resident, clock and pipelines at cycle zero, caches cold, no counts, no
// launch context. It is the one place that writes the initial value of an SM
// field. The backings stay — slot tables, queues, caches, and the retired
// block and warp contexts with their register files, which
// LaunchBlock rewrites whole (TestDirtyReuseBitIdentical) — and so do the
// decoded tables, which belong to the device (Programs), and the engine.
// Contexts resident at the call are dropped, not recycled: a kernel that
// panicked or was cancelled may have left them in any state.
func (s *SM) Reset() {
	for i := range s.subparts {
		s.subparts[i].reset()
	}
	s.dp.Reset()
	s.icache.Reset()
	*s = SM{
		spec:          s.spec,
		id:            s.id,
		dp:            s.dp,
		icache:        s.icache,
		storage:       s.storage,
		constBank:     s.constBank,
		subparts:      s.subparts,
		progs:         s.progs,
		lrr:           s.spec.SchedulingPolicy == "lrr",
		lineShift:     uint(bits.TrailingZeros(uint(s.spec.LineSize))),
		noWakeList:    s.noWakeList,
		sectorScratch: s.sectorScratch[:0],
		freeBlocks:    s.freeBlocks,
		freeWarps:     s.freeWarps,
	}
}

// SetReference selects the engine of an idle SM: the reference engine, the
// oracle of sim.Device.SetReference, or the production one (the default).
func (s *SM) SetReference(on bool) {
	if s.Busy() {
		panic(fmt.Sprintf("sm %d: SetReference while busy", s.id))
	}
	s.noWakeList = on
}

// BeginLaunch readies an idle SM for a kernel launch: clock, pipelines,
// dispatch unit and instruction queues start again at cycle zero; the
// launch's local-memory base and total thread count (for local address
// interleaving) are installed; the immediate-constant cache is invalidated,
// as the launch rewrote the constant bank; and the counters are zeroed, so
// Counters counts this launch alone. Caches and retired contexts carry over.
func (s *SM) BeginLaunch(localBase uint64, totalThreads int) {
	if s.Busy() {
		panic(fmt.Sprintf("sm %d: BeginLaunch while busy", s.id))
	}
	for i := range s.subparts {
		s.subparts[i].reset()
	}
	s.cycle, s.fetchBusy, s.nextWakeup = 0, 0, 0
	s.tickEvent, s.fetchRefused = false, false
	s.groupCharge, s.groupCharged = [NumWarpStates]uint32{}, false
	s.localBase, s.totalThreads = localBase, totalThreads
	s.dp.IMC.Flush()
	s.dp.ResetStats()
	s.ctr = Counters{}
}

// Busy reports whether any warp is resident.
func (s *SM) Busy() bool { return s.residentWarps > 0 }

// ResidentBlocks returns the number of thread blocks currently resident —
// the per-SM occupancy signal the observability layer samples onto its
// simulated-time trace track.
func (s *SM) ResidentBlocks() int { return s.residentBlocks }

// Cycle returns the SM's current cycle.
func (s *SM) Cycle() uint64 { return s.cycle }

// CanAccept reports whether a block of the launch fits in the SM's free
// resources right now.
func (s *SM) CanAccept(l *kernel.Launch) bool {
	bt := l.BlockThreads()
	wpb := l.WarpsPerBlock()
	if s.residentBlocks+1 > s.spec.MaxBlocksPerSM {
		return false
	}
	if s.residentThreads+bt > s.spec.MaxThreadsPerSM {
		return false
	}
	if s.residentRegs+l.Program.NumRegs*bt > s.spec.RegistersPerSM {
		return false
	}
	if s.residentShared+l.SharedBytes() > s.spec.SharedMemPerSM {
		return false
	}
	// Warps are dealt to subpartitions round-robin starting at 0; each must
	// have room for its share.
	n := len(s.subparts)
	for k := range s.subparts {
		need := (wpb - k + n - 1) / n
		if need > s.subparts[k].freeSlots() {
			return false
		}
	}
	return true
}

// LaunchBlock makes a block resident. Callers must check CanAccept first.
func (s *SM) LaunchBlock(l *kernel.Launch, ctaid [3]int64, blockLinear int) {
	bt := l.BlockThreads()
	wpb := l.WarpsPerBlock()
	blk := take(&s.freeBlocks)
	*blk = blockCtx{
		ctaid:       ctaid,
		blockLinear: blockLinear,
		launch:      l,
		dec:         s.progs.decode(l.Program),
		shared:      zeroed(blk.shared, l.SharedBytes()),
		liveWarps:   wpb,
		remaining:   wpb,
		warps:       blk.warps[:0],
	}
	for wi := 0; wi < wpb; wi++ {
		members := uint32(0xFFFFFFFF)
		if rem := bt - wi*kernel.WarpSize; rem < kernel.WarpSize {
			members = (1 << rem) - 1
		}
		spIdx := wi % len(s.subparts)
		sp := &s.subparts[spIdx]
		slot := -1
		for j, ws := range sp.warps {
			if ws == nil {
				slot = j
				break
			}
		}
		if slot < 0 {
			panic(fmt.Sprintf("sm %d: no free warp slot in subpartition %d (CanAccept not honoured)", s.id, spIdx))
		}
		s.launchSeq++
		w := take(&s.freeWarps)
		w.reset(spIdx, slot, wi, blk, members, l.Program.NumRegs, s.launchSeq)
		w.since = s.cycle // classified at the next tick; until then the interval is empty
		sp.warps[slot] = w
		sp.file(slot, 0, s.cycle)
		if sp.nres++; sp.nres == 1 {
			s.activeSubps++
		}
		blk.warps = append(blk.warps, w)
	}
	s.residentBlocks++
	s.residentThreads += bt
	s.residentWarps += wpb
	s.residentRegs += l.Program.NumRegs * bt
	s.residentShared += l.SharedBytes()
	s.ctr.BlocksLaunched++
	s.ctr.WarpsLaunched += uint64(wpb)
	s.residencyVer++
	// New warps are immediately runnable; any previously computed
	// fast-forward bound no longer holds.
	s.nextWakeup = s.cycle
}

// take pops a retired context off a free list, or allocates one when the
// list is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	*free = (*free)[:n-1]
	return v
}

// checkBarrier releases a block's barrier when every live warp has arrived.
func (s *SM) checkBarrier(b *blockCtx) {
	if b.arrived == 0 || b.arrived < b.liveWarps {
		return
	}
	for _, w := range b.warps {
		if !w.atBarrier {
			continue // draining or already reaped: its slot may belong to another warp
		}
		w.atBarrier = false
		// The release is a cross-warp event: make the released warp due, so
		// that the next pass over its subpartition reclassifies it — this
		// tick's, if that pass has not reached its slot yet.
		sp := &s.subparts[w.subp]
		sp.unfile(w.slot, s.cycle)
		sp.file(w.slot, 0, s.cycle)
	}
	b.arrived = 0
}

// neverWake marks a warp with no self-contained wakeup bound (e.g. blocked
// at a barrier: only another warp's arrival or death can release it, and
// those are issue/tick events that collapse the bound anyway).
const neverWake = ^uint64(0)

// ensureFetched models the instruction supply: one line-fetch per SM per
// cycle through the L1 instruction cache. With the warp's next instruction in
// its instruction buffer, or on its way there, it returns the cycle the
// instruction is decoded and true; with the fetch port busy, the cycle the
// port frees and false — the warp must ask again then — and it sets
// fetchRefused.
func (s *SM) ensureFetched(w *warp, pc int, now uint64) (uint64, bool) {
	line := s.fetchLine(pc)
	if w.fetchedLine == line+1 {
		return w.ifetchReady, true
	}
	if s.fetchBusy > now {
		s.fetchRefused = true
		return s.fetchBusy, false // fetch port busy this cycle
	}
	s.fetchBusy = now + uint64(s.spec.FetchCyclesPerLine)
	w.fetchedLine = line + 1
	if s.icache.Access(line << s.lineShift) {
		s.ctr.ICacheHits++
		w.ifetchReady = now + uint64(s.spec.DecodeDelay)
	} else {
		s.ctr.ICacheMisses++
		w.ifetchReady = now + uint64(s.spec.L2Latency)/2 + uint64(s.spec.DecodeDelay)
	}
	return w.ifetchReady, true
}

// fetchLine is the instruction-cache line holding the instruction at pc.
func (s *SM) fetchLine(pc int) uint64 { return uint64(pc*s.spec.InstrBytes) >> s.lineShift }

// own runs the half of a warp's classification that reads only state the
// warp's own issue can change — SIMT stack, exit, barrier, membar,
// nextEligible, instruction buffer, scoreboard — so a result holds until the
// returned wake cycle whatever the rest of the SM does. Three outcomes:
//
//   - d == nil: the warp is in state st and own must run again at wake
//     (neverWake: only another warp can release it). Bounds may be in the
//     past (a drained store list); the caller clamps them to now+1.
//   - d != nil, wake > now: the warp waits in st until wake for the last
//     thing its next instruction d needs — its decode, or the completion of
//     its last operand — and from then on is ready: nothing but its own issue
//     moves that cycle.
//   - d != nil, wake <= now: the warp is ready to issue d.
//
// When the fetch port turned the warp away (d == nil, StateNoInstruction,
// wake the cycle the port frees, fetchRefused set), nothing own reads can
// change before the port frees: until then own would say the same again.
func (s *SM) own(w *warp, now uint64) (d *decodedInstr, st WarpState, wake uint64) {
	w.syncStack()
	if w.finished {
		if sp := &s.subparts[w.subp]; sp.draining&(1<<w.slot) == 0 {
			sp.draining |= 1 << w.slot
			s.drainingWarps++
			w.block.liveWarps--
			s.checkBarrier(w.block)
			// The death may have released the block barrier, changing
			// peers classified earlier this tick: force a normal tick.
			s.tickEvent = true
		}
		// Reaped by reapFinished at the last store's completion cycle.
		return nil, StateDrain, w.lastStoreDone()
	}
	if w.atBarrier {
		return nil, StateBarrier, neverWake
	}
	if w.membarPending {
		if w.drainStores(now) > 0 || now < w.fenceUntil {
			return nil, StateMembar, maxU64(w.lastStoreDone(), w.fenceUntil)
		}
		w.membarPending = false
	}
	if now < w.nextEligible {
		return nil, w.eligibleReason, w.nextEligible
	}
	pc := w.top().pc
	instrs := w.block.dec.instrs
	if pc >= len(instrs) {
		panic(fmt.Sprintf("sm %d: warp %d.%d ran past program end (kernel %s)", s.id, w.subp, w.slot, w.block.launch.Program.Name))
	}
	decoded, fetched := s.ensureFetched(w, pc, now)
	if !fetched {
		return nil, StateNoInstruction, decoded
	}
	d = &instrs[pc]
	ready, kind := w.scoreboardDec(d)
	if decoded > now {
		if ready > decoded {
			d = nil // the scoreboard stall that follows is a state of its own
		}
		return d, StateNoInstruction, decoded
	}
	if ready > now {
		return d, kind.stallState(), ready
	}
	return d, StateSelected, now
}

// classify is the reference engine's classifier: the state of one warp this
// cycle, decided from scratch. eligible is true only when the warp could
// issue right now. The production engine runs the own half per warp and
// decides the subpartition half once per gate (Tick); the two must charge
// every cycle alike.
func (s *SM) classify(sp *subpart, w *warp, now uint64) (state WarpState, eligible bool) {
	d, st, wake := s.own(w, now)
	switch {
	case d == nil || wake > now:
		return st, false
	case now < sp.dispatchFree:
		return StateDispatchStall, false
	case sp.pipeFree[d.pipe] > now:
		return d.throttle, false
	case d.queue == queueLG && sp.lgQueue.Full(now):
		return StateLGThrottle, false
	case d.queue == queueMIO && sp.mioQueue.Full(now):
		return StateMIOThrottle, false
	case d.queue == queueTEX && sp.texQueue.Full(now):
		return StateTEXThrottle, false
	}
	return StateSelected, true
}

// pick selects one eligible warp per the spec's scheduling policy from a
// slot bitmask; returns -1 when it is empty.
func (s *SM) pick(sp *subpart, cand uint64) int {
	if cand == 0 {
		return -1
	}
	if s.lrr {
		// First eligible slot after the last issued one, wrapping around.
		if after := cand &^ (1<<(sp.lastIssued+1) - 1); after != 0 {
			cand = after
		}
		return bits.TrailingZeros64(cand)
	}
	// Greedy-then-oldest: keep issuing the same warp while possible,
	// otherwise the oldest (smallest launch sequence).
	if cand>>sp.lastIssued&1 != 0 {
		return sp.lastIssued
	}
	best := bits.TrailingZeros64(cand)
	for m := cand & (cand - 1); m != 0; m &= m - 1 {
		if c := bits.TrailingZeros64(m); sp.warps[c].launchSeq < sp.warps[best].launchSeq {
			best = c
		}
	}
	return best
}

// enter closes the warp's open accounting interval at now and opens one in
// state st. Every resident warp outside the ready sets is in exactly one
// state each cycle, so its residency is a sequence of such intervals and a
// cycle in which nothing about the warp changes costs nothing.
func (s *SM) enter(w *warp, st WarpState, now uint64) {
	s.ctr.WarpStateCycles[w.state] += now - w.since
	w.state, w.since = st, now
}

// charge accounts this cycle for the n ready warps found stalled in state st.
func (s *SM) charge(st WarpState, n int) {
	s.ctr.WarpStateCycles[st] += uint64(n)
	s.groupCharge[st] += uint32(n)
	s.groupCharged = true
}

// classifyAll is the reference engine's scan of one subpartition: every
// resident warp classified from scratch, stalled warps entering their state,
// eligible ones returned as a slot mask.
func (s *SM) classifyAll(sp *subpart, now uint64) (cand uint64) {
	for slot, w := range sp.warps {
		if w == nil {
			continue
		}
		if st, eligible := s.classify(sp, w, now); eligible {
			cand |= 1 << slot
		} else {
			s.enter(w, st, now)
		}
	}
	return cand
}

// wakeWarps is the production engine's pass over one subpartition's due
// slots, in slot order, as the wake index hands them over: a slot not due is
// never visited — its open interval keeps growing, which is what a fresh
// classification would account — and a due warp runs own, unless own promised
// it ready at its bound (subpart.pending). A ready warp settles its interval
// and joins the ready set of its instruction's gate. A warp the fetch port turned
// away waits on the port (fetchWait): it is due when the port is free as the
// pass reaches its slot, and skipped, its interval left open, when an earlier
// warp has taken the port this tick. A barrier release by a dying warp makes
// the slots after the current one due in this pass and those before it due in
// the next. It returns wake lowered to the earliest bound still pending.
func (s *SM) wakeWarps(sp *subpart, now, wake uint64) uint64 {
	if now >= sp.farMin {
		sp.refileFar(now)
	}
	b := now % wheelSpan
	due := sp.woken | sp.wheel[b]
	sp.woken, sp.wheel[b] = 0, 0
	sp.wheelOcc &^= 1 << b
	if s.fetchBusy <= now {
		due |= sp.fetchWait
	}
	for due != 0 {
		slot := bits.TrailingZeros64(due)
		bit := uint64(1) << slot
		due &^= bit
		if sp.fetchWait&bit != 0 {
			if s.fetchBusy > now {
				continue // an earlier warp took the port in this tick
			}
			sp.fetchWait &^= bit
		}
		if now < sp.wakeAt[slot] {
			continue // a stale hint: the slot is filed under its real bound
		}
		w := sp.warps[slot]
		d := sp.pending[slot]
		if d == nil {
			var st WarpState
			var wb uint64
			d, st, wb = s.own(w, now)
			if sp.woken != 0 {
				// w's death released a barrier: the released slots after
				// this one are due in this pass, those before it in the next.
				later := sp.woken &^ (bit<<1 - 1)
				due |= later
				sp.woken &^= later
			}
			if d == nil || wb > now {
				s.enter(w, st, now)
				sp.pending[slot] = d
				if s.fetchRefused {
					s.fetchRefused = false
					sp.wakeAt[slot] = wb
					sp.fetchWait |= bit
				} else {
					sp.file(slot, max(wb, now+1), now)
				}
				continue
			}
		}
		s.ctr.WarpStateCycles[w.state] += now - w.since
		sp.join(slot, d)
	}
	return min(wake, sp.nextBound(now, s.fetchBusy))
}

// issueReady issues the next instruction of the warp picked at cycle now and
// takes it out of its ready set. From now+1 its state is its own again, and
// issueReady settles it at once when what own would say of it then is already
// decided by what the warp holds:
//   - the issue put the warp to sleep (a branch resolving, the operand
//     collector, NANOSLEEP; none of them exits, joins a barrier or raises a
//     fence): that state until nextEligible is all own could say;
//   - the issue neither exited, joined a barrier nor raised a fence (its
//     class is below classEXIT) and the warp's next instruction sits in the
//     line its buffer already holds: own at now+1 then reads only state of the
//     warp's own — no fetch port, no other warp — which nothing but its own
//     next issue changes, so own runs now. The warp is filed at its bound
//     with its pending instruction, or, ready at now+1, joins its gate's
//     ready set, as the next pass would have it do.
//
// Otherwise the warp is filed due, to be classified by the next pass. It
// returns the bound the warp was filed at, now when it was left ready or due.
func (s *SM) issueReady(sp *subpart, w *warp, now uint64) uint64 {
	slot := w.slot
	bit := uint64(1) << slot
	d := sp.pending[slot]
	if sp.ready[d.gate] &^= bit; sp.ready[d.gate] == 0 {
		sp.gateOcc &^= 1 << d.gate
	}
	sp.readyAll &^= bit
	s.issue(sp, w, now)
	next := now + 1
	if w.nextEligible > next {
		sp.pending[slot] = nil
		w.state, w.since = w.eligibleReason, next
		sp.file(slot, w.nextEligible, now)
		return w.nextEligible
	}
	if d.class < classEXIT {
		w.syncStack()
		if w.fetchedLine == s.fetchLine(w.top().pc)+1 {
			// Not finished, at no barrier, under no fence, awake: own finds no
			// bound before next.
			nd, st, wake := s.own(w, next)
			w.state, w.since = st, next
			if wake == next {
				sp.join(slot, nd)
				return now
			}
			sp.pending[slot] = nd
			sp.file(slot, wake, now)
			return wake
		}
	}
	sp.pending[slot] = nil
	w.state, w.since = StateSelected, next
	// A BAR that released the barrier it arrived at has filed the warp as
	// woken already; filing it again changes nothing.
	sp.file(slot, 0, now)
	return now
}

// join puts slot in the ready set of d's gate, d being the instruction its
// warp is ready to issue. The slot must be filed nowhere.
func (sp *subpart) join(slot int, d *decodedInstr) {
	bit := uint64(1) << slot
	sp.pending[slot] = d
	sp.ready[d.gate] |= bit
	sp.gateOcc |= 1 << d.gate
	sp.readyAll |= bit
	sp.wakeAt[slot] = neverWake
}

// gateQueue is the instruction queue an instruction behind gate g must find
// an entry in, nil when it needs none.
func (sp *subpart) gateQueue(g int) *mem.TimedQueue {
	switch g {
	case int(isa.PipeLSU):
		return sp.lgQueue
	case int(isa.PipeMIO):
		return sp.mioQueue
	case int(isa.PipeTEX):
		return sp.texQueue
	}
	return nil
}

// openGates decides, once per gate, what classify decides per warp for the
// subpartition's ready warps: dispatch unit busy — all of them stall on it —
// else per non-empty gate pipe busy or queue full, else the gate is open. The
// warps behind a closed gate are charged its state for this cycle; those
// behind open gates are returned as the candidate mask, with wake lowered to
// the earliest cycle a closed gate can open.
func (s *SM) openGates(sp *subpart, now, wake uint64) (cand, earliest uint64) {
	if sp.readyAll == 0 {
		return 0, wake
	}
	if now < sp.dispatchFree {
		s.charge(StateDispatchStall, bits.OnesCount64(sp.readyAll))
		return 0, min(wake, sp.dispatchFree)
	}
	for m := sp.gateOcc; m != 0; m &= m - 1 {
		g := bits.TrailingZeros16(m)
		set := sp.ready[g]
		opens := sp.pipeFree[gatePipe(g)]
		if opens <= now {
			q := sp.gateQueue(g)
			if q == nil || !q.Full(now) {
				cand |= set
				continue
			}
			opens = max(q.NextCompletion(), now+1)
		}
		s.charge(throttleState(gatePipe(g)), bits.OnesCount64(set))
		wake = min(wake, opens)
	}
	return cand, wake
}

// Tick advances the SM one cycle and recomputes the fast-forward bound
// (see NextWakeup).
func (s *SM) Tick() {
	now := s.cycle
	s.ctr.ElapsedCycles++
	s.accountResidency(1)
	if s.groupCharged {
		s.groupCharge, s.groupCharged = [NumWarpStates]uint32{}, false
	}
	quiet := true     // no unsettled issue, reap or cross-warp event this tick
	wake := neverWake // min over the wakeup bounds of warps and gates
	// Production engine: some subpartition issued, and the slots the passes
	// left ready or due (a union of masks, zero when there are none).
	issued, unsettled := false, uint64(0)

	for i := range s.subparts {
		sp := &s.subparts[i]
		if sp.nres == 0 {
			continue
		}
		var cand uint64
		if s.noWakeList {
			cand = s.classifyAll(sp, now)
			quiet = false // the reference engine bounds nothing: it runs every cycle
		} else {
			wake = s.wakeWarps(sp, now, wake)
			cand, wake = s.openGates(sp, now, wake)
		}
		winner := s.pick(sp, cand)
		if winner < 0 {
			unsettled |= sp.readyAll | sp.woken
			continue
		}
		w := sp.warps[winner]
		if s.noWakeList {
			for m := cand; m != 0; m &= m - 1 {
				c := bits.TrailingZeros64(m)
				st := StateNotSelected // eligible but not picked
				if c == winner {
					st = StateSelected
				}
				s.enter(sp.warps[c], st, now)
			}
			s.issue(sp, w, now)
		} else {
			s.ctr.WarpStateCycles[StateNotSelected] += uint64(bits.OnesCount64(cand) - 1)
			s.ctr.WarpStateCycles[StateSelected]++
			wake = min(wake, s.issueReady(sp, w, now))
			issued = true
		}
		sp.lastIssued = winner
		unsettled |= sp.readyAll | sp.woken
	}

	if s.reapFinished(now) {
		quiet = false
	}
	if s.tickEvent {
		s.tickEvent = false
		quiet = false
	}
	// An issue moved the pipes, the dispatch unit and the queues, which only
	// ready warps read, and issueReady filed each issued warp at its real
	// bound (lowering wake to it) unless it left it ready or due. So with no
	// warp ready or due anywhere, the issuing cycle repeats until wake as a
	// quiet one does: nothing is charged by group, and every open interval
	// grows with the clock. The reference engine forces the next tick.
	if issued && unsettled != 0 {
		quiet = false
	}
	s.cycle++
	s.nextWakeup = s.cycle
	if quiet {
		s.nextWakeup = max(wake, s.cycle)
	}
}

// accountResidency charges n cycles of the current residency: every resident
// warp is active and every non-empty subpartition is active in each of them.
func (s *SM) accountResidency(n uint64) {
	s.ctr.ActiveWarpCycles += n * uint64(s.residentWarps)
	s.ctr.SubpActiveCycles += n * uint64(s.activeSubps)
	if s.residentWarps > 0 {
		s.ctr.ActiveCycles += n
	}
}

// NextWakeup returns the bound computed by the most recent Tick: the
// earliest cycle at which the next Tick can differ from an exact repeat of
// the last one. When the last tick reaped a warp or released a barrier, or
// issued and left a warp ready or due (on the reference engine: issued at
// all), the bound is simply the current cycle (no skip).
// Otherwise every resident warp is blocked with a known release cycle and
// re-running Tick before the minimum of those would re-classify no warp and
// change no residency — which is what AdvanceTo accounts in O(1) instead.
func (s *SM) NextWakeup() uint64 { return s.nextWakeup }

// AdvanceTo jumps the clock to target, accounting the cycles [s.cycle,
// target) as exact repeats of the last tick: residency and the ready sets'
// group charge are charged per cycle, and every warp's open state interval
// simply grows with the clock. Only legal up to the bound reported by
// NextWakeup; the panic guards the bit-identity invariant.
func (s *SM) AdvanceTo(target uint64) {
	if target <= s.cycle {
		return
	}
	if target > s.nextWakeup {
		panic(fmt.Sprintf("sm %d: AdvanceTo(%d) beyond wakeup bound %d", s.id, target, s.nextWakeup))
	}
	n := target - s.cycle
	s.ctr.ElapsedCycles += n
	s.accountResidency(n)
	if s.groupCharged {
		for st, warps := range s.groupCharge {
			s.ctr.WarpStateCycles[st] += n * uint64(warps)
		}
	}
	s.cycle = target
}

// ResidencyVersion increments whenever the SM's resource occupancy changes
// (block launched or warp reaped). The device's dispatcher uses it as a
// dirty flag: an SM that rejected a block keeps rejecting it until the
// version moves, because CanAccept is a pure function of occupancy.
func (s *SM) ResidencyVersion() uint64 { return s.residencyVer }

// reapFinished frees the draining warps — all threads exited — whose stores
// have drained, visiting them in slot order, and retires completed blocks.
// Returns whether anything was freed (a residency event that invalidates
// fast-forward bounds).
func (s *SM) reapFinished(now uint64) bool {
	if s.drainingWarps == 0 {
		return false
	}
	reaped := false
	for i := range s.subparts {
		sp := &s.subparts[i]
		for m := sp.draining; m != 0; m &= m - 1 {
			slot := bits.TrailingZeros64(m)
			w := sp.warps[slot]
			if w.drainStores(now) > 0 {
				continue
			}
			// The warp was resident through cycle now: settle the closed
			// interval [since, now] and free the slot.
			s.ctr.WarpStateCycles[w.state] += now + 1 - w.since
			sp.warps[slot] = nil
			sp.draining &^= 1 << slot
			s.drainingWarps--
			sp.unfile(slot, now)
			sp.wakeAt[slot] = neverWake
			if sp.nres--; sp.nres == 0 {
				s.activeSubps--
			}
			s.residentWarps--
			s.residentThreads -= int(popcount(w.members))
			s.residentRegs -= len(w.regs) * int(popcount(w.members))
			s.residencyVer++
			reaped = true
			w.block.remaining--
			if w.block.remaining == 0 {
				s.retireBlock(w.block)
			}
		}
	}
	return reaped
}

func (s *SM) retireBlock(b *blockCtx) {
	s.residentBlocks--
	s.residentShared -= b.launch.SharedBytes()
	// Every warp of b has been reaped: nothing refers to them or to b.
	s.freeWarps = append(s.freeWarps, b.warps...)
	s.freeBlocks = append(s.freeBlocks, b)
}

// CheckQueues calls report for every timed structure whose live entries are
// out of order: the per-subpartition LG/MIO/TEX instruction queues. The
// invariant checker uses it to assert the monotone-completion property that
// NextCompletion (and hence every fast-forward wakeup bound) depends on.
func (s *SM) CheckQueues(report func(queue string, subpart int)) {
	for i := range s.subparts {
		sp := &s.subparts[i]
		if !sp.lgQueue.Sorted() {
			report("lg", i)
		}
		if !sp.mioQueue.Sorted() {
			report("mio", i)
		}
		if !sp.texQueue.Sorted() {
			report("tex", i)
		}
	}
}

// Counters returns the SM's counters including the memory-path statistics
// and the still-open state interval of every resident warp that has one
// (warps in a ready set are charged as they go). It mutates nothing: calling
// it mid-launch (the device's trace samples do) changes no later value.
func (s *SM) Counters() Counters {
	c := s.ctr
	for i := range s.subparts {
		sp := &s.subparts[i]
		for slot, w := range sp.warps {
			if w != nil && sp.readyAll>>slot&1 == 0 {
				c.WarpStateCycles[w.state] += s.cycle - w.since
			}
		}
	}
	c.DataPathStats = s.dp.Stats()
	return c
}

// FlushCaches invalidates the SM-private caches (between profiler passes).
func (s *SM) FlushCaches() {
	s.dp.Flush()
	s.icache.Flush()
}
