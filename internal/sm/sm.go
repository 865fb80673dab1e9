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
	warps        []*warp // fixed slots, nil = free
	nres         int     // occupied slots, maintained by LaunchBlock/reapFinished
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
	subparts  []*subpart
	blocks    []*blockCtx

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

	// Adaptive fast-forward hysteresis. Wakeup bookkeeping (per-warp bound
	// minimisation, the state histogram AdvanceTo replays) is pure overhead
	// while the SM issues every cycle, so after adaptiveHotTicks consecutive
	// non-quiescent ticks wakeTrack turns the bookkeeping off; the first
	// quiescent tick (every subpartition idle) re-arms it. Purely host-side:
	// simulation results are bit-identical either way.
	adaptiveFF bool
	wakeTrack  bool
	hotStreak  uint32

	// drainCount tracks warps that have finished but still hold outstanding
	// stores, so the per-tick reap scan runs only when it can reap.
	drainCount int

	// noWakeList disables the per-warp wake-list skip in Tick (test hook:
	// the exactness test runs both ways and demands identical counters).
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
	stateScratch  [64]WarpState
	candScratch   []int
	sectorScratch []uint64

	// Retired block contexts and their warps, filled by retireBlock and
	// drained by LaunchBlock, which resets whatever it takes (warp.reset), so
	// nothing of a retired block is visible to the next one. They die with
	// the SM: Device.ResetSMs rebuilds SMs after a failed kernel.
	freeBlocks []*blockCtx
	freeWarps  []*warp

	// Quiet-span accounting snapshot, rebuilt by every Tick: how many
	// resident warps sit in each state (by lastState), how many
	// subpartitions have residents, and the total resident count. AdvanceTo
	// replays these per-cycle deltas in O(states) instead of O(warps).
	stateHist   [NumWarpStates]uint64
	activeSubps uint64
	histWarps   uint64

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

	ctr Counters
}

// New builds an SM around the device-shared memory system, global storage
// and constant bank.
func New(spec *gpu.Spec, id int, ms *mem.MemSys, storage *mem.Storage, constBank *mem.ConstantBank) *SM {
	s := &SM{
		spec:          spec,
		id:            id,
		dp:            mem.NewDataPath(spec, id, ms),
		icache:        mem.NewCache("L1I", spec.ICacheSize, spec.ICacheWays, spec.LineSize, spec.LineSize),
		storage:       storage,
		constBank:     constBank,
		adaptiveFF:    true,
		wakeTrack:     true,
		candScratch:   make([]int, 0, spec.WarpSlotsPerSubpartition),
		sectorScratch: make([]uint64, 0, 64),
	}
	for i := 0; i < spec.SubpartitionsPerSM; i++ {
		s.subparts = append(s.subparts, &subpart{
			warps:    make([]*warp, spec.WarpSlotsPerSubpartition),
			lgQueue:  mem.NewTimedQueue(spec.LGQueueDepth),
			mioQueue: mem.NewTimedQueue(spec.MIOQueueDepth),
			texQueue: mem.NewTimedQueue(spec.TEXQueueDepth),
		})
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
	for k, sp := range s.subparts {
		need := (wpb - k + n - 1) / n
		if need > sp.freeSlots() {
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
		sp := s.subparts[spIdx]
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
		w.reset(spIdx*len(sp.warps)+slot, spIdx, wi, blk, members, l.Program.NumRegs, s.launchSeq)
		sp.warps[slot] = w
		sp.nres++
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
		w.atBarrier = false
		// The release is a cross-warp event: drop the released warps'
		// wake-list bounds so the next Tick reclassifies them immediately.
		w.wakeAt = 0
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
	// Fast path: still inside a known scoreboard-stall window.
	if now < w.stallUntil {
		return w.stallState, false, w.stallUntil
	}
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
		panic(fmt.Sprintf("sm %d: warp %d ran past program end (kernel %s)", s.id, w.id, w.block.launch.Program.Name))
	}
	if ok, fwake := s.ensureFetched(w, pc, now); !ok {
		return StateNoInstruction, false, fwake
	}
	d := &w.block.dec.instrs[pc]
	if ready, kind := w.scoreboardDec(d); ready > now {
		st := kind.stallState()
		w.stallUntil = ready
		w.stallState = st
		return st, false, ready
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
	if s.spec.SchedulingPolicy == "lrr" {
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

// adaptiveHotTicks is the hysteresis threshold for adaptive fast-forward:
// after this many consecutive non-quiescent ticks, wakeup bookkeeping is
// pure overhead (nothing is skippable while the SM keeps issuing) and turns
// off until the next fully-idle tick.
const adaptiveHotTicks = 64

// Tick advances the SM one cycle and recomputes the fast-forward bound
// (see NextWakeup).
func (s *SM) Tick() {
	now := s.cycle
	s.ctr.ElapsedCycles++
	activeWarps := 0
	quiet := true     // no issue, reap or cross-warp event this tick
	wake := neverWake // min over ineligible warps' wakeup bounds
	track := s.wakeTrack
	if track {
		s.stateHist = [NumWarpStates]uint64{}
		s.activeSubps = 0
	}

	// candidates shares one backing array (s.candScratch) across every
	// subpartition: pick consumes it before the next truncation, and the
	// possibly re-grown backing is stored back exactly once after the loop.
	candidates := s.candScratch[:0]
	for _, sp := range s.subparts {
		if sp.nres == 0 {
			continue
		}
		candidates = candidates[:0]
		states := &s.stateScratch
		for slot, w := range sp.warps {
			if w == nil {
				continue
			}
			activeWarps++
			if now < w.wakeAt && !s.noWakeList {
				// Wake-list skip: the warp's last classify bound proves a
				// re-run now would return lastState and mutate nothing.
				// lastState is never Selected/NotSelected here (eligible
				// warps get wakeAt = 0), so the winner pass below accounts
				// the skipped warp exactly as a fresh classify would.
				states[slot] = w.lastState
				if w.wakeAt < wake {
					wake = w.wakeAt
				}
				continue
			}
			st, eligible, wb := s.classify(sp, w, now)
			states[slot] = st
			if eligible {
				candidates = append(candidates, slot)
				w.wakeAt = 0
			} else {
				if wb <= now {
					wb = now + 1
				}
				if wb < wake {
					wake = wb
				}
				w.wakeAt = wb
			}
		}
		winner := s.pick(sp, candidates)
		for slot, w := range sp.warps {
			if w == nil {
				continue
			}
			st := states[slot]
			if slot == winner {
				st = StateSelected
			} else if st == StateSelected {
				st = StateNotSelected // eligible but not picked
			}
			s.ctr.WarpStateCycles[st]++
			if track {
				s.stateHist[st]++
			}
			w.lastState = st
		}
		if winner >= 0 {
			s.issue(sp, sp.warps[winner], now)
			sp.lastIssued = winner
			quiet = false
		}
		s.ctr.SubpActiveCycles++
		if track {
			s.activeSubps++
		}
	}
	s.candScratch = candidates[:0]

	if track {
		s.histWarps = uint64(activeWarps)
	}
	s.ctr.ActiveWarpCycles += uint64(activeWarps)
	if activeWarps > 0 {
		s.ctr.ActiveCycles++
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

	if !track {
		// Bookkeeping is off: never fast-forward. Re-arm at the first
		// quiescent tick — the tick on which every subpartition sat idle —
		// or once the SM drains. That one tick's skip window is forfeited;
		// the next tick rebuilds the histogram before any skip can happen.
		if quiet || activeWarps == 0 {
			s.wakeTrack = true
			s.hotStreak = 0
		}
		s.nextWakeup = s.cycle
		return
	}
	if s.adaptiveFF && activeWarps > 0 {
		if quiet {
			s.hotStreak = 0
		} else if s.hotStreak++; s.hotStreak >= adaptiveHotTicks {
			// adaptiveHotTicks consecutive non-quiescent ticks: the SM is
			// issuing steadily, fast-forward has nothing to skip, and the
			// histogram rebuild is pure overhead. Go hot.
			s.wakeTrack = false
			s.hotStreak = 0
		}
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

// NextWakeup returns the bound computed by the most recent Tick: the
// earliest cycle at which the next Tick can differ from an exact repeat of
// the last one. When the last tick issued an instruction, reaped a warp or
// released a barrier, the bound is simply the current cycle (no skip).
// Otherwise every resident warp is blocked with a known release cycle and
// re-running Tick before the minimum of those would increment exactly the
// same counters by exactly the same amounts — which is what AdvanceTo does
// in O(warps) instead.
func (s *SM) NextWakeup() uint64 { return s.nextWakeup }

// AdvanceTo bulk-accounts the cycles [s.cycle, target) as exact repeats of
// the last tick and jumps the clock to target. Only legal up to the bound
// reported by NextWakeup; the panic guards the bit-identity invariant.
func (s *SM) AdvanceTo(target uint64) {
	if target <= s.cycle {
		return
	}
	if target > s.nextWakeup {
		panic(fmt.Sprintf("sm %d: AdvanceTo(%d) beyond wakeup bound %d", s.id, target, s.nextWakeup))
	}
	n := target - s.cycle
	for st, c := range s.stateHist {
		if c > 0 {
			s.ctr.WarpStateCycles[st] += n * c
		}
	}
	s.ctr.SubpActiveCycles += n * s.activeSubps
	s.ctr.ElapsedCycles += n
	s.ctr.ActiveWarpCycles += n * s.histWarps
	if s.histWarps > 0 {
		s.ctr.ActiveCycles += n
	}
	s.cycle = target
}

// SetAdaptiveFF enables or disables the adaptive fast-forward hysteresis.
// When disabled, wakeup bookkeeping runs on every tick (the PR3 behaviour).
// Host-side only: simulation results are identical either way.
func (s *SM) SetAdaptiveFF(on bool) {
	s.adaptiveFF = on
	if !on {
		s.wakeTrack = true
		s.hotStreak = 0
	}
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
	for _, sp := range s.subparts {
		for slot, w := range sp.warps {
			if w == nil || !w.finished {
				continue
			}
			if w.drainStores(now) > 0 {
				continue
			}
			sp.warps[slot] = nil
			sp.nres--
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
	for i, sp := range s.subparts {
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

// Counters returns the SM's counters including the memory-path statistics.
func (s *SM) Counters() Counters {
	c := s.ctr
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

// ResetCounters zeroes all statistics (between profiler passes).
func (s *SM) ResetCounters() {
	s.ctr = Counters{}
	s.dp.ResetStats()
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
	s.wakeTrack = true
	s.hotStreak = 0
	for _, sp := range s.subparts {
		sp.pipeFree = [isa.NumPipes]uint64{}
		sp.dispatchFree = 0
		sp.lgQueue.Reset()
		sp.mioQueue.Reset()
		sp.texQueue.Reset()
		sp.lastIssued = 0
	}
}
