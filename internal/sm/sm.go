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
	// slot's most recent own-state classification (SM.own). While now < wakeAt,
	// Tick skips the slot — the contract guarantees a re-run would return the
	// same state and mutate nothing. A free slot and a warp in a ready set
	// both read neverWake, so the skip scan is a run over contiguous words
	// that never touches a warp.
	wakeAt []uint64

	// ready[g] is the ready set of gate g, a slot bitmask: the warps whose
	// own-state checks have passed for an instruction behind that gate, and
	// which therefore wait only on what the subpartition shares — the dispatch
	// unit, the gate's pipe, its queue, the pick. They carry no accounting
	// interval: Tick decides each gate once and charges the set by popcount.
	// readyAll is the union. A warp leaves its set only by issuing.
	ready    [numGates]uint64
	readyAll uint64

	pipeFree     [isa.NumPipes]uint64
	dispatchFree uint64
	lgQueue      *mem.TimedQueue
	mioQueue     *mem.TimedQueue
	texQueue     *mem.TimedQueue
	lastIssued   int // slot of the most recently issued warp (GTO/LRR)
}

func (sp *subpart) resident() int { return sp.nres }

func (sp *subpart) freeSlots() int { return len(sp.warps) - sp.nres }

// SM is one Streaming Multiprocessor.
type SM struct {
	spec      *gpu.Spec
	id        int
	dp        *mem.DataPath
	icache    *mem.Cache
	storage   *mem.Storage
	constBank *mem.ConstantBank
	subparts  []subpart
	blocks    []*blockCtx
	lrr       bool // spec.SchedulingPolicy == "lrr", decided once in New

	cycle     uint64
	fetchBusy uint64
	launchSeq uint64

	// Fast-forward bookkeeping. nextWakeup is the bound computed by the
	// most recent Tick: the earliest cycle at which the next Tick can do
	// anything other than exactly repeat the last one (see NextWakeup).
	// tickEvent is set by classify when it mutates cross-warp state
	// (barrier release on warp death) and forces the bound to collapse to
	// the current cycle. residencyVer counts resource-occupancy changes so
	// the device's dispatcher can skip SMs whose last rejection is still
	// current.
	nextWakeup   uint64
	tickEvent    bool
	residencyVer uint64

	// drainCount tracks warps that have finished but still hold outstanding
	// stores, so the per-tick reap scan runs only when it can reap.
	drainCount int

	// noWakeList selects the reference engine: no wake table, no ready sets,
	// every resident warp classified from scratch every tick by classify (test
	// hook: the exactness tests run both ways and demand identical counters).
	noWakeList bool

	// groupCharge is what the last Tick charged the ready sets for gates found
	// closed, in warps per state. A quiet tick repeats until NextWakeup, so
	// AdvanceTo charges it again for every cycle it skips.
	groupCharge [NumWarpStates]uint32

	// progCache holds the per-program decoded-instruction tables (see
	// decode.go), keyed by program identity and retained until Reset —
	// replay passes re-launch the same programs.
	progCache map[*kernel.Program]*decodedProgram

	// Launch-wide context for local-memory addressing, set by the device.
	localBase    uint64
	totalThreads int

	// sectorScratch backs CoalesceSectorsInto in the issue path (no
	// allocation in the cycle loop).
	sectorScratch []uint64

	// Retired block contexts and their warps, filled by retireBlock and
	// drained by LaunchBlock, which resets whatever it takes (warp.reset), so
	// nothing of a retired block is visible to the next one. Reset keeps
	// them; they die with the SM, which Device.ResetSMs rebuilds after a
	// failed kernel.
	freeBlocks []*blockCtx
	freeWarps  []*warp

	// Tracing: when traceInterval > 0 the SM snapshots a counter delta
	// every traceInterval cycles, giving an intra-kernel timeline.
	traceInterval uint64
	traceBase     Counters
	traceSamples  []Counters

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

// referenceEngine is what New puts in SM.noWakeList. Only tests set it
// (export_test.go), to run whole applications on the reference engine.
var referenceEngine bool

// New builds an SM around the device-shared memory system, global storage
// and constant bank. The spec is validated by its owner (gpu.Spec.Validate
// bounds WarpSlotsPerSubpartition by the width of a ready-set mask).
func New(spec *gpu.Spec, id int, ms *mem.MemSys, storage *mem.Storage, constBank *mem.ConstantBank) *SM {
	nsp, slots := spec.SubpartitionsPerSM, spec.WarpSlotsPerSubpartition
	s := &SM{
		spec:          spec,
		id:            id,
		dp:            mem.NewDataPath(spec, id, ms),
		icache:        mem.NewCache("L1I", spec.ICacheSize, spec.ICacheWays, spec.LineSize, spec.LineSize),
		storage:       storage,
		constBank:     constBank,
		subparts:      make([]subpart, nsp),
		lrr:           spec.SchedulingPolicy == "lrr",
		noWakeList:    referenceEngine,
		sectorScratch: make([]uint64, 0, 64),
	}
	// One backing per slot table for the whole SM, carved per subpartition: a
	// device build pays two allocations per SM however many subpartitions.
	warps := make([]*warp, nsp*slots)
	wakeAt := make([]uint64, nsp*slots)
	for i := range wakeAt {
		wakeAt[i] = neverWake
	}
	for i := range s.subparts {
		lo, hi := i*slots, (i+1)*slots
		s.subparts[i] = subpart{
			warps:    warps[lo:hi:hi],
			wakeAt:   wakeAt[lo:hi:hi],
			lgQueue:  mem.NewTimedQueue(spec.LGQueueDepth),
			mioQueue: mem.NewTimedQueue(spec.MIOQueueDepth),
			texQueue: mem.NewTimedQueue(spec.TEXQueueDepth),
		}
	}
	return s
}

// SetLaunchContext installs the per-launch local-memory base and total
// thread count used for local address interleaving.
func (s *SM) SetLaunchContext(localBase uint64, totalThreads int) {
	s.localBase = localBase
	s.totalThreads = totalThreads
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
		dec:         s.decodeProgram(l.Program),
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
		sp.wakeAt[slot] = 0
		if sp.nres++; sp.nres == 1 {
			s.activeSubps++
		}
		blk.warps = append(blk.warps, w)
	}
	s.blocks = append(s.blocks, blk)
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
			continue // dead or already reaped: its slot may belong to another warp
		}
		w.atBarrier = false
		// The release is a cross-warp event: drop the released warp's wake
		// table entry so the next Tick reclassifies it immediately.
		s.subparts[w.subp].wakeAt[w.slot] = 0
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
// port frees and false — the warp must ask again then.
func (s *SM) ensureFetched(w *warp, pc int, now uint64) (uint64, bool) {
	lineSize := uint64(s.spec.LineSize)
	line := uint64(pc*s.spec.InstrBytes) / lineSize
	if w.fetchedLine == line+1 {
		return w.ifetchReady, true
	}
	if s.fetchBusy > now {
		return s.fetchBusy, false // fetch port busy this cycle
	}
	s.fetchBusy = now + uint64(s.spec.FetchCyclesPerLine)
	w.fetchedLine = line + 1
	if s.icache.Access(line * lineSize) {
		s.ctr.ICacheHits++
		w.ifetchReady = now + uint64(s.spec.DecodeDelay)
	} else {
		s.ctr.ICacheMisses++
		w.ifetchReady = now + uint64(s.spec.L2Latency)/2 + uint64(s.spec.DecodeDelay)
	}
	return w.ifetchReady, true
}

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
func (s *SM) own(w *warp, now uint64) (d *decodedInstr, st WarpState, wake uint64) {
	w.syncStack()
	if w.finished {
		if w.block.liveWarps > 0 && !w.deadCounted() {
			w.markDead()
			w.block.liveWarps--
			s.drainCount++
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
	if pc >= w.block.launch.Program.Len() {
		panic(fmt.Sprintf("sm %d: warp %d.%d ran past program end (kernel %s)", s.id, w.subp, w.slot, w.block.launch.Program.Name))
	}
	decoded, fetched := s.ensureFetched(w, pc, now)
	if !fetched {
		return nil, StateNoInstruction, decoded
	}
	d = &w.block.dec.instrs[pc]
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
// issue right now. For ineligible warps, wake is the earliest cycle at which
// the classification can change. The production engine runs the own half per
// warp and decides the subpartition half once per gate (Tick); the two must
// charge every cycle alike.
func (s *SM) classify(sp *subpart, w *warp, now uint64) (state WarpState, eligible bool, wake uint64) {
	d, st, wake := s.own(w, now)
	if d == nil || wake > now {
		return st, false, wake
	}
	if now < sp.dispatchFree {
		return StateDispatchStall, false, sp.dispatchFree
	}
	if sp.pipeFree[d.pipe] > now {
		return d.throttle, false, sp.pipeFree[d.pipe]
	}
	switch d.queue {
	case queueLG:
		if sp.lgQueue.Full(now) {
			return StateLGThrottle, false, sp.lgQueue.NextCompletion()
		}
	case queueMIO:
		if sp.mioQueue.Full(now) {
			return StateMIOThrottle, false, sp.mioQueue.NextCompletion()
		}
	case queueTEX:
		if sp.texQueue.Full(now) {
			return StateTEXThrottle, false, sp.texQueue.NextCompletion()
		}
	}
	return StateSelected, true, now
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
}

// classifyAll is the reference engine's scan of one subpartition: every
// resident warp classified from scratch, stalled warps entering their state,
// eligible ones returned as a slot mask, with wake lowered to the earliest
// bound met.
func (s *SM) classifyAll(sp *subpart, now, wake uint64) (cand, earliest uint64) {
	for slot, w := range sp.warps {
		if w == nil {
			continue
		}
		st, eligible, wb := s.classify(sp, w, now)
		if eligible {
			cand |= 1 << slot
			continue
		}
		s.enter(w, st, now)
		wake = min(wake, max(wb, now+1))
	}
	return cand, wake
}

// wakeWarps is the production engine's pass over one subpartition's wake
// table: a slot whose bound has not expired is skipped — its open interval
// keeps growing, which is what a fresh classification would account — and a
// warp whose bound has expired runs own, unless own promised it ready at that
// bound (warp.pending). A ready warp settles its interval and joins the ready
// set of its instruction's gate. It returns wake lowered to the earliest bound
// still pending.
func (s *SM) wakeWarps(sp *subpart, now, wake uint64) uint64 {
	for slot, wa := range sp.wakeAt {
		if now < wa {
			wake = min(wake, wa)
			continue
		}
		w := sp.warps[slot]
		d := w.pending
		if d == nil {
			var st WarpState
			var wb uint64
			if d, st, wb = s.own(w, now); d == nil || wb > now {
				s.enter(w, st, now)
				w.pending = d
				wb = max(wb, now+1)
				sp.wakeAt[slot] = wb
				wake = min(wake, wb)
				continue
			}
		}
		w.pending = nil
		s.ctr.WarpStateCycles[w.state] += now - w.since
		sp.ready[d.gate] |= 1 << slot
		sp.readyAll |= 1 << slot
		sp.wakeAt[slot] = neverWake
	}
	return wake
}

// issueReady issues the next instruction of the warp picked at cycle now and
// takes it out of its ready set: from now+1 its state is its own again, to be
// found by the next pass over the wake table — unless the issue itself put the
// warp to sleep (a branch resolving, the operand collector, NANOSLEEP; none of
// them exits, joins a barrier or raises a fence), which is then all own could
// say of it until nextEligible.
func (s *SM) issueReady(sp *subpart, w *warp, now uint64) {
	bit := uint64(1) << w.slot
	sp.ready[w.block.dec.instrs[w.top().pc].gate] &^= bit
	sp.readyAll &^= bit
	s.issue(sp, w, now)
	w.state, w.since = StateSelected, now+1
	sp.wakeAt[w.slot] = 0
	if w.nextEligible > now+1 {
		w.state = w.eligibleReason
		sp.wakeAt[w.slot] = w.nextEligible
	}
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
	for g := range sp.ready { // by index: ranging over the array's values would copy it
		set := sp.ready[g]
		if set == 0 {
			continue
		}
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
	s.groupCharge = [NumWarpStates]uint32{}
	quiet := true     // no issue, reap or cross-warp event this tick
	wake := neverWake // min over the wakeup bounds of warps and gates

	for i := range s.subparts {
		sp := &s.subparts[i]
		if sp.nres == 0 {
			continue
		}
		var cand uint64
		if s.noWakeList {
			cand, wake = s.classifyAll(sp, now, wake)
		} else {
			wake = s.wakeWarps(sp, now, wake)
			cand, wake = s.openGates(sp, now, wake)
		}
		winner := s.pick(sp, cand)
		if winner < 0 {
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
			s.issueReady(sp, w, now)
		}
		sp.lastIssued = winner
		quiet = false
	}

	if s.drainCount > 0 && s.reapFinished(now) {
		quiet = false
	}
	if s.tickEvent {
		s.tickEvent = false
		quiet = false
	}
	s.cycle++
	if s.traceInterval > 0 && s.cycle%s.traceInterval == 0 {
		cur := s.Counters()
		s.traceSamples = append(s.traceSamples, cur.Sub(&s.traceBase))
		s.traceBase = cur
	}

	if !quiet || wake <= s.cycle {
		s.nextWakeup = s.cycle
		return
	}
	if s.traceInterval > 0 {
		// The tick that lands one cycle before a sample boundary emits the
		// sample (cycle becomes a multiple of the interval after its
		// increment); keep that tick in the normal path so the snapshot is
		// taken exactly where the naive loop takes it.
		if b := (s.cycle/s.traceInterval+1)*s.traceInterval - 1; b < wake {
			wake = b
		}
	}
	s.nextWakeup = wake
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
// the last one. When the last tick issued an instruction, reaped a warp or
// released a barrier, the bound is simply the current cycle (no skip).
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
	for st, warps := range s.groupCharge {
		s.ctr.WarpStateCycles[st] += n * uint64(warps)
	}
	s.cycle = target
}

// ResidencyVersion increments whenever the SM's resource occupancy changes
// (block launched or warp reaped). The device's dispatcher uses it as a
// dirty flag: an SM that rejected a block keeps rejecting it until the
// version moves, because CanAccept is a pure function of occupancy.
func (s *SM) ResidencyVersion() uint64 { return s.residencyVer }

// reapFinished frees warps whose threads have all exited and whose stores
// have drained, and retires completed blocks. Returns whether anything was
// freed (a residency event that invalidates fast-forward bounds).
func (s *SM) reapFinished(now uint64) bool {
	reaped := false
	for i := range s.subparts {
		sp := &s.subparts[i]
		for slot, w := range sp.warps {
			if w == nil || !w.finished {
				continue
			}
			if w.drainStores(now) > 0 {
				continue
			}
			// The warp was resident through cycle now: settle the closed
			// interval [since, now] and free the slot.
			s.ctr.WarpStateCycles[w.state] += now + 1 - w.since
			sp.warps[slot] = nil
			sp.wakeAt[slot] = neverWake
			if sp.nres--; sp.nres == 0 {
				s.activeSubps--
			}
			s.drainCount--
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
	for i, blk := range s.blocks {
		if blk == b {
			s.blocks = append(s.blocks[:i], s.blocks[i+1:]...)
			break
		}
	}
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
// it mid-launch (trace samples do) changes no later value.
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
	st := s.dp.Stats()
	c.GlobalLoads = st.GlobalLoads
	c.GlobalStores = st.GlobalStores
	c.LoadSectors = st.LoadSectors
	c.StoreSectors = st.StoreSectors
	c.L1Hits = st.L1Hits
	c.L1Misses = st.L1Misses
	c.L2Hits = st.L2Hits
	c.L2Misses = st.L2Misses
	c.ConstLoads = st.ConstLoads
	c.IMCHits = st.IMCHits
	c.IMCMisses = st.IMCMisses
	c.TexFetches = st.TexFetches
	c.Atomics = st.Atomics
	return c
}

// ResetCounters zeroes all statistics (between profiler passes). Open state
// intervals of resident warps are re-anchored at the current cycle, so what
// is counted afterwards is exactly what happens afterwards.
func (s *SM) ResetCounters() {
	s.ctr = Counters{}
	s.dp.ResetStats()
	for i := range s.subparts {
		for _, w := range s.subparts[i].warps {
			if w != nil {
				w.since = s.cycle
			}
		}
	}
}

// FlushCaches invalidates the SM-private caches (between profiler passes).
func (s *SM) FlushCaches() {
	s.dp.Flush()
	s.icache.Flush()
}

// FlushIMC invalidates the immediate-constant cache, done at every kernel
// launch since constant-bank contents change with it.
func (s *SM) FlushIMC() { s.dp.FlushIMC() }

// EnableTrace starts per-interval counter snapshots (an intra-kernel
// timeline). interval is in cycles; 0 disables. Existing samples are
// discarded and the delta base is re-anchored at the current counters.
func (s *SM) EnableTrace(interval uint64) {
	s.traceInterval = interval
	s.traceSamples = nil
	s.traceBase = s.Counters()
}

// DisableTrace stops tracing and clears samples.
func (s *SM) DisableTrace() {
	s.traceInterval = 0
	s.traceSamples = nil
}

// TraceSamples returns the per-interval counter deltas recorded since
// EnableTrace, oldest first.
func (s *SM) TraceSamples() []Counters { return s.traceSamples }

// ResetClock rewinds the SM's cycle counter and pipeline bookkeeping to zero
// between kernel launches. Only legal when idle.
func (s *SM) ResetClock() {
	if s.Busy() {
		panic(fmt.Sprintf("sm %d: ResetClock while busy", s.id))
	}
	s.cycle = 0
	s.fetchBusy = 0
	s.nextWakeup = 0
	s.tickEvent = false
	s.groupCharge = [NumWarpStates]uint32{}
	for i := range s.subparts {
		sp := &s.subparts[i]
		sp.pipeFree = [isa.NumPipes]uint64{}
		sp.dispatchFree = 0
		sp.lgQueue.Reset()
		sp.mioQueue.Reset()
		sp.texQueue.Reset()
		sp.lastIssued = 0
	}
}

// Reset returns an idle SM to what New built — clock, pipelines, caches,
// counters, tracing and decoded programs — but keeps the retired block and
// warp contexts, with their register, shared-memory and store backings, for
// the next launch to take: LaunchBlock rewrites everything it takes from them
// (TestDirtyReuseBitIdentical). Dropping the decoded programs keeps a
// long-lived SM from holding every program it ever ran. Only legal when idle.
func (s *SM) Reset() {
	s.ResetClock()
	s.dp.Reset()
	s.icache.Reset()
	s.launchSeq, s.residencyVer = 0, 0
	s.noWakeList = referenceEngine
	clear(s.progCache)
	s.localBase, s.totalThreads = 0, 0
	s.DisableTrace()
	s.traceBase = Counters{}
	s.ctr = Counters{}
}
