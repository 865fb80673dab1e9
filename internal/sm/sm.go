package sm

import (
	"fmt"

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
	// slot's most recent classify. While now < wakeAt, Tick skips the slot —
	// classify's contract guarantees a re-run would return the same state and
	// mutate nothing — and a free slot reads neverWake, so the skip scan is a
	// run over contiguous words that never touches a warp.
	wakeAt []uint64

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

	// noWakeList disables both classify shortcuts — the wake-table skip in
	// Tick and the sticky readiness in classify — so every resident warp is
	// classified from scratch every tick (test hook: the exactness tests run
	// both ways and demand identical counters).
	noWakeList bool

	// progCache holds the per-program decoded-instruction tables (see
	// decode.go), keyed by program identity and retained for the SM's
	// lifetime — replay passes re-launch the same programs.
	progCache map[*kernel.Program]*decodedProgram

	// Launch-wide context for local-memory addressing, set by the device.
	localBase    uint64
	totalThreads int

	// Per-tick scratch buffers (no allocation in the cycle loop).
	// candScratch is a single backing array shared by every subpartition of
	// a tick in turn: Tick truncates it per subpartition and stores the
	// (possibly re-grown) backing once per tick. sectorScratch backs
	// CoalesceSectorsInto in the issue path.
	candScratch   []int
	sectorScratch []uint64

	// Retired block contexts and their warps, filled by retireBlock and
	// drained by LaunchBlock, which resets whatever it takes (warp.reset), so
	// nothing of a retired block is visible to the next one. They die with
	// the SM: Device.ResetSMs rebuilds SMs after a failed kernel.
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

// New builds an SM around the device-shared memory system, global storage
// and constant bank.
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
		candScratch:   make([]int, 0, slots),
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
// cycle through the L1 instruction cache. It returns true when the warp's
// next instruction is available in its instruction buffer, and otherwise
// the cycle at which this warp's fetch wait can end (port free or decode
// complete).
func (s *SM) ensureFetched(w *warp, pc int, now uint64) (bool, uint64) {
	lineSize := uint64(s.spec.LineSize)
	line := uint64(pc*s.spec.InstrBytes) / lineSize
	if w.fetchedLine == line+1 {
		return now >= w.ifetchReady, w.ifetchReady
	}
	if s.fetchBusy > now {
		return false, s.fetchBusy // fetch port busy this cycle
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
	return false, w.ifetchReady
}

// classify determines the warp's state this cycle. eligible is true only
// when the warp could issue right now. For ineligible warps, wake is the
// earliest cycle at which the warp's classification can change — until
// then, re-running classify would return the same state and mutate
// nothing. Bounds may be in the past (e.g. a drained store list); Tick
// clamps them to now+1.
func (s *SM) classify(sp *subpart, w *warp, now uint64) (state WarpState, eligible bool, wake uint64) {
	// Sticky readiness: every check down to the scoreboard reads state only
	// this warp's own issue can change, so once passed they hold until then
	// and only the subpartition conditions below are re-checked.
	d := w.ready
	if d == nil || s.noWakeList {
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
			return StateDrain, false, w.lastStoreDone()
		}
		if w.atBarrier {
			return StateBarrier, false, neverWake
		}
		if w.membarPending {
			if w.drainStores(now) > 0 || now < w.fenceUntil {
				return StateMembar, false, maxU64(w.lastStoreDone(), w.fenceUntil)
			}
			w.membarPending = false
		}
		if now < w.nextEligible {
			return w.eligibleReason, false, w.nextEligible
		}
		pc := w.top().pc
		if pc >= w.block.launch.Program.Len() {
			panic(fmt.Sprintf("sm %d: warp %d.%d ran past program end (kernel %s)", s.id, w.subp, w.slot, w.block.launch.Program.Name))
		}
		if ok, fwake := s.ensureFetched(w, pc, now); !ok {
			return StateNoInstruction, false, fwake
		}
		d = &w.block.dec.instrs[pc]
		if ready, kind := w.scoreboardDec(d); ready > now {
			return kind.stallState(), false, ready
		}
		w.ready = d
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

// pick selects one eligible warp per the spec's scheduling policy.
// candidates holds slot indices; returns -1 when empty.
func (s *SM) pick(sp *subpart, candidates []int) int {
	if len(candidates) == 0 {
		return -1
	}
	if s.lrr {
		// First eligible slot after the last issued one.
		n := len(sp.warps)
		for off := 1; off <= n; off++ {
			slot := (sp.lastIssued + off) % n
			for _, c := range candidates {
				if c == slot {
					return slot
				}
			}
		}
		return candidates[0]
	}
	// Greedy-then-oldest: keep issuing the same warp while possible,
	// otherwise the oldest (smallest launch sequence).
	for _, c := range candidates {
		if c == sp.lastIssued && sp.warps[c] != nil {
			return c
		}
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if sp.warps[c].launchSeq < sp.warps[best].launchSeq {
			best = c
		}
	}
	return best
}

// enter closes the warp's open accounting interval at now and opens one in
// state st. Every resident warp is in exactly one state each cycle, so its
// residency is a sequence of such intervals and a cycle in which nothing
// about the warp changes costs nothing.
func (s *SM) enter(w *warp, st WarpState, now uint64) {
	s.ctr.WarpStateCycles[w.state] += now - w.since
	w.state, w.since = st, now
}

// Tick advances the SM one cycle and recomputes the fast-forward bound
// (see NextWakeup).
func (s *SM) Tick() {
	now := s.cycle
	s.ctr.ElapsedCycles++
	s.accountResidency(1)
	quiet := true     // no issue, reap or cross-warp event this tick
	wake := neverWake // min over ineligible warps' wakeup bounds
	skip := !s.noWakeList

	// candidates shares one backing array (s.candScratch) across every
	// subpartition: pick consumes it before the next truncation, and the
	// possibly re-grown backing is stored back exactly once after the loop.
	candidates := s.candScratch[:0]
	for i := range s.subparts {
		sp := &s.subparts[i]
		if sp.nres == 0 {
			continue
		}
		candidates = candidates[:0]
		for slot, wa := range sp.wakeAt {
			if skip && now < wa {
				// Wake-table skip: the slot is free, or its last classify
				// bound proves a re-run now would return the state of its open
				// interval and mutate nothing. That state is never
				// Selected/NotSelected (an eligible warp's entry is already in
				// the past), so leaving the interval open accounts the cycle
				// exactly as a fresh classify would.
				if wa < wake {
					wake = wa
				}
				continue
			}
			w := sp.warps[slot]
			if w == nil {
				continue // free slot, reached only under noWakeList
			}
			st, eligible, wb := s.classify(sp, w, now)
			if eligible {
				candidates = append(candidates, slot)
				continue
			}
			s.enter(w, st, now)
			if wb <= now {
				wb = now + 1
			}
			if wb < wake {
				wake = wb
			}
			sp.wakeAt[slot] = wb
		}
		if winner := s.pick(sp, candidates); winner >= 0 {
			for _, c := range candidates {
				st := StateNotSelected // eligible but not picked
				if c == winner {
					st = StateSelected
				}
				s.enter(sp.warps[c], st, now)
			}
			s.issue(sp, sp.warps[winner], now)
			sp.lastIssued = winner
			quiet = false
		}
	}
	s.candScratch = candidates[:0]

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
// target) as exact repeats of the last tick: residency is charged per cycle,
// and every warp's open state interval simply grows with the clock. Only
// legal up to the bound reported by NextWakeup; the panic guards the
// bit-identity invariant.
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
// and the still-open state interval of every resident warp. It mutates
// nothing: calling it mid-launch (trace samples do) changes no later value.
func (s *SM) Counters() Counters {
	c := s.ctr
	for i := range s.subparts {
		for _, w := range s.subparts[i].warps {
			if w != nil {
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
