package sm

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"gputopdown/internal/gpu"
)

// wakeIndexError reports the first way the wake index disagrees with the wake
// table after the tick at now: a due or timed slot filed nowhere or twice, a
// bit filed under a bound other than the slot's, a stale occupancy bit, a far
// minimum that is not the minimum, a fetch waiter with the port free, a
// draining mask that is not the set of finished warps — or a next bound that
// differs from the minimum over the table, the quantity the full scan used to
// return.
func wakeIndexError(s *SM, now uint64) error {
	for i := range s.subparts {
		sp := &s.subparts[i]
		var occ uint64
		for b, m := range sp.wheel {
			if m != 0 {
				occ |= 1 << b
			}
		}
		if occ != sp.wheelOcc {
			return fmt.Errorf("subpartition %d: wheelOcc %#x, buckets occupied %#x", i, sp.wheelOcc, occ)
		}
		farMin, next := neverWake, neverWake
		for slot, t := range sp.wakeAt {
			bit := uint64(1) << slot
			w := sp.warps[slot]
			var where []string
			for b, m := range sp.wheel {
				if m&bit != 0 {
					where = append(where, fmt.Sprintf("wheel[%d]", b))
				}
			}
			for _, f := range []struct {
				name string
				mask uint64
			}{{"woken", sp.woken}, {"far", sp.far}, {"fetchWait", sp.fetchWait}} {
				if f.mask&bit != 0 {
					where = append(where, f.name)
				}
			}
			if w == nil || t == neverWake {
				if len(where) > 0 {
					return fmt.Errorf("subpartition %d slot %d: bound %d filed in %v", i, slot, t, where)
				}
				if w == nil && sp.draining&bit != 0 {
					return fmt.Errorf("subpartition %d slot %d: a free slot drains", i, slot)
				}
				continue
			}
			if sp.draining&bit != 0 != w.finished {
				return fmt.Errorf("subpartition %d slot %d: draining bit %v for a warp finished %v", i, slot, sp.draining&bit != 0, w.finished)
			}
			if len(where) != 1 {
				return fmt.Errorf("subpartition %d slot %d: bound %d filed in %v, want exactly one place", i, slot, t, where)
			}
			switch where[0] {
			case "woken":
				if t > now {
					return fmt.Errorf("subpartition %d slot %d: woken with bound %d after the tick at %d", i, slot, t, now)
				}
				continue
			case "far":
				farMin = min(farMin, t)
				if t <= now {
					return fmt.Errorf("subpartition %d slot %d: far bound %d not after the tick at %d", i, slot, t, now)
				}
			case "fetchWait":
				if s.fetchBusy <= now || t > s.fetchBusy || w.state != StateNoInstruction {
					return fmt.Errorf("subpartition %d slot %d: waits on a port busy to %d with bound %d in state %v after the tick at %d", i, slot, s.fetchBusy, t, w.state, now)
				}
				t = s.fetchBusy
			default:
				if want := fmt.Sprintf("wheel[%d]", t%wheelSpan); where[0] != want || t <= now || t-now >= wheelSpan {
					return fmt.Errorf("subpartition %d slot %d: bound %d filed in %s after the tick at %d", i, slot, t, where[0], now)
				}
			}
			next = min(next, t)
		}
		var all uint64
		for g, set := range sp.ready {
			all |= set
			if set != 0 != (sp.gateOcc>>g&1 != 0) {
				return fmt.Errorf("subpartition %d: gate %d holds %#x with occupancy bit %v", i, g, set, sp.gateOcc>>g&1 != 0)
			}
			for m := set; m != 0; m &= m - 1 {
				slot := bits.TrailingZeros64(m)
				if d := sp.pending[slot]; d == nil || int(d.gate) != g || sp.wakeAt[slot] != neverWake {
					return fmt.Errorf("subpartition %d slot %d: in the ready set of gate %d with pending %v and bound %d", i, slot, g, d, sp.wakeAt[slot])
				}
			}
		}
		if all != sp.readyAll {
			return fmt.Errorf("subpartition %d: readyAll %#x, union of the ready sets %#x", i, sp.readyAll, all)
		}
		if farMin != sp.farMin {
			return fmt.Errorf("subpartition %d: farMin %d, least far bound %d", i, sp.farMin, farMin)
		}
		if got := sp.nextBound(now, s.fetchBusy); got != next {
			return fmt.Errorf("subpartition %d: next bound %d, least bound in the table %d", i, got, next)
		}
	}
	return nil
}

// TestWakeIndexMatchesTable runs every accounting kernel on both models with
// fast-forward and checks the wake index against the wake table after every
// tick (wakeIndexError). On the wheel-boundary kernel it also checks that the
// kernel does what it is there for: bounds filed 63, 64 and 65 cycles out and
// beyond the L2 latency, and jumps that cross a wheel wrap.
func TestWakeIndexMatchesTable(t *testing.T) {
	for _, spec := range equivalenceSpecs() {
		for _, l := range accountingLaunches(spec) {
			filed := map[uint64]bool{}
			var furthest uint64
			wraps := 0
			prev := make([]uint64, spec.SubpartitionsPerSM*spec.WarpSlotsPerSubpartition)
			runGrid(t, l, runCfg{spec: spec, ff: true, tick: func(s *SM) {
				for i := range s.subparts {
					copy(prev[i*spec.WarpSlotsPerSubpartition:], s.subparts[i].wakeAt)
				}
				now := s.Cycle()
				s.Tick()
				if err := wakeIndexError(s, now); err != nil {
					t.Fatalf("%s %s, tick at %d: %v", spec.Name, l.Program.Name, now, err)
				}
				for i := range s.subparts {
					for slot, wa := range s.subparts[i].wakeAt {
						if wa != prev[i*spec.WarpSlotsPerSubpartition+slot] && wa != neverWake && wa > now {
							filed[wa-now] = true
							furthest = max(furthest, wa-now)
						}
					}
				}
				if s.NextWakeup()/wheelSpan > s.Cycle()/wheelSpan {
					wraps++
				}
			}})
			if l.Program.Name != "wheelboundary" {
				continue
			}
			for _, d := range []uint64{63, 64, 65} {
				if !filed[d] {
					t.Errorf("%s %s: no bound filed %d cycles out", spec.Name, l.Program.Name, d)
				}
			}
			if furthest < uint64(spec.L2Latency) {
				t.Errorf("%s %s: the furthest bound filed is %d cycles out, short of the L2 latency", spec.Name, l.Program.Name, furthest)
			}
			if wraps == 0 {
				t.Errorf("%s %s: no fast-forward jump crossed a wheel wrap", spec.Name, l.Program.Name)
			}
		}
	}
}

// syncedPC is the pc at the top of w's stack once synced, and whether it has
// finished, computed on a copy: w is left as it is.
func syncedPC(w *warp) (int, bool) {
	c := *w
	c.stack = slices.Clone(w.stack)
	c.syncStack()
	return c.top().pc, c.finished
}

// TestIssuedWarpIsSettled runs every accounting kernel on both models with
// fast-forward and checks, after every tick, what became of the warp each
// subpartition issued (the warp whose interval now starts at the next cycle):
//   - an issue that put the warp to sleep files it at nextEligible in its
//     eligibility state;
//   - an EXIT, BAR or MEMBAR, or a next instruction outside the line the warp's
//     buffer held, hands the warp back to the next pass: filed due, in no
//     state of its own yet (StateSelected), nothing pending;
//   - any other issue settles the warp in the tick, without touching the
//     fetch port (its buffer still holds the line it held): its state, bound
//     and pending instruction are what own says of it at the next cycle —
//     filed at that bound, or, ready at the next cycle, in its gate's ready
//     set.
//
// Every kernel set must settle warps and hand some back for each reason.
func TestIssuedWarpIsSettled(t *testing.T) {
	// before is what a warp held before the tick: the instruction at the top
	// of its stack once synced (a synced copy: the tick's own syncs the warp),
	// and the line in its buffer.
	type before struct {
		instr *decodedInstr
		line  uint64
	}
	for _, spec := range equivalenceSpecs() {
		slots := spec.SubpartitionsPerSM * spec.WarpSlotsPerSubpartition
		prev := make([]before, slots)
		settled, ready, handed, unfetched, slept := 0, 0, 0, 0, 0
		for _, l := range accountingLaunches(spec) {
			runGrid(t, l, runCfg{spec: spec, ff: true, tick: func(s *SM) {
				for i := range s.subparts {
					sp := &s.subparts[i]
					for slot, w := range sp.warps {
						if w == nil {
							continue
						}
						var d *decodedInstr
						if pc, finished := syncedPC(w); !finished && pc < len(w.block.dec.instrs) {
							d = &w.block.dec.instrs[pc]
						}
						prev[i*spec.WarpSlotsPerSubpartition+slot] = before{d, w.fetchedLine}
					}
				}
				now := s.Cycle()
				s.Tick()
				next := now + 1
				for i := range s.subparts {
					sp := &s.subparts[i]
					for slot, w := range sp.warps {
						if w == nil || w.since != next {
							continue // not issued in this tick
						}
						p := prev[i*spec.WarpSlotsPerSubpartition+slot]
						where := fmt.Sprintf("%s %s, tick at %d, subpartition %d slot %d", spec.Name, l.Program.Name, now, i, slot)
						if p.instr == nil {
							t.Fatalf("%s: issued, but had no instruction to issue before the tick", where)
						}
						if w.nextEligible > next {
							if w.state != w.eligibleReason || sp.wakeAt[slot] != w.nextEligible || sp.pending[slot] != nil {
								t.Fatalf("%s: put to sleep until %d in %v, found in %v, bound %d, pending %v", where, w.nextEligible, w.eligibleReason, w.state, sp.wakeAt[slot], sp.pending[slot])
							}
							slept++
							continue
						}
						pc, _ := syncedPC(w)
						held := p.line == s.fetchLine(pc)+1
						if p.instr.class >= classEXIT || !held {
							if w.state != StateSelected || sp.pending[slot] != nil || sp.wakeAt[slot] != 0 || sp.woken>>slot&1 == 0 {
								t.Fatalf("%s: class %d, next line held %v: state %v, pending %v, bound %d, woken %v; want handed back due",
									where, p.instr.class, held, w.state, sp.pending[slot], sp.wakeAt[slot], sp.woken>>slot&1 != 0)
							}
							if held {
								handed++
							} else {
								unfetched++
							}
							continue
						}
						if w.fetchedLine != p.line {
							t.Fatalf("%s: settled, but its buffer went from line %d to %d in the tick", where, p.line, w.fetchedLine)
						}
						d, st, wake := s.own(w, next)
						inReady := sp.readyAll>>slot&1 != 0
						switch {
						case sp.pending[slot] != d || w.state != st:
							t.Fatalf("%s: settled with pending %v in %v, own says %v in %v", where, sp.pending[slot], w.state, d, st)
						case wake == next && (!inReady || sp.ready[d.gate]>>slot&1 == 0):
							t.Fatalf("%s: ready at the next cycle, but not in the ready set of its gate %d", where, d.gate)
						case wake > next && (inReady || sp.wakeAt[slot] != wake):
							t.Fatalf("%s: settled with bound %d (in a ready set %v), own says %d", where, sp.wakeAt[slot], inReady, wake)
						}
						if wake == next {
							ready++
						}
						settled++
					}
				}
				if err := wakeIndexError(s, now); err != nil {
					t.Fatalf("%s %s, tick at %d: %v", spec.Name, l.Program.Name, now, err)
				}
			}})
		}
		t.Logf("%s: %d issues settled (%d of them ready at once), %d handed back after EXIT/BAR/MEMBAR, %d for a line not held, %d put to sleep",
			spec.Name, settled, ready, handed, unfetched, slept)
		if settled == 0 || ready == 0 || settled == ready || handed == 0 || unfetched == 0 || slept == 0 {
			t.Errorf("%s: the kernels no longer reach every way an issue ends", spec.Name)
		}
	}
}

// TestFetchWaitersAreNotPolled: on a GTX 1070 SM whose 64 warps queue for the
// fetch port, a warp the port turned away waits on it, and own is not run for
// it while the port is busy. A waiter still waiting after a tick was left as
// it was: its accounting interval was not reopened (since and state
// unchanged) — whether the port was busy all tick or was taken in the tick by
// a warp the pass reached first. In a tick that starts with the port busy (it
// stays busy all tick: only a free port is taken) every waiter still waits
// after it, and own is not run for any of them, which the test shows by
// poisoning a waiter with an eligibility delay own would report and lifting
// it again after the tick. The run still ends with the reference engine's
// counters.
func TestFetchWaitersAreNotPolled(t *testing.T) {
	spec := gpu.GTX1070().WithSMs(1)
	l := fetchContendedLaunch()
	type waiter struct {
		w     *warp
		state WarpState
		since uint64
	}
	var before []waiter
	busyTicks, takenTicks, poisoned := 0, 0, 0
	got := runGrid(t, l, runCfg{spec: spec, tick: func(s *SM) {
		now := s.Cycle()
		busy := s.fetchBusy > now
		before = before[:0]
		for i := range s.subparts {
			sp := &s.subparts[i]
			for m := sp.fetchWait; m != 0; m &= m - 1 {
				w := sp.warps[bits.TrailingZeros64(m)]
				before = append(before, waiter{w, w.state, w.since})
			}
		}
		var victim *warp
		if busy && len(before) > 0 && now%7 == 0 {
			victim = before[len(before)/2].w
			victim.nextEligible, victim.eligibleReason = now+1000, StateSleeping
			poisoned++
		}
		s.Tick()
		if victim != nil {
			victim.nextEligible, victim.eligibleReason = 0, 0
		}
		stayed := 0
		for _, p := range before {
			waiting := s.subparts[p.w.subp].fetchWait>>p.w.slot&1 != 0
			if busy && !waiting || waiting && (p.w.state != p.state || p.w.since != p.since) {
				t.Fatalf("tick at %d, port busy at its start %v: waiter %d.%d went from %v since %d to %v since %d, waiting %v",
					now, busy, p.w.subp, p.w.slot, p.state, p.since, p.w.state, p.w.since, waiting)
			}
			if waiting {
				stayed++
			}
		}
		switch {
		case busy && stayed > 0:
			busyTicks++
		case !busy && stayed > 0 && s.fetchBusy > now:
			takenTicks++ // the port was taken in this tick and waiters stayed behind it
		}
	}})
	if busyTicks < 100 || takenTicks < 100 || poisoned == 0 {
		t.Fatalf("%d ticks began with waiters behind a busy port, %d left waiters behind a port taken in the tick (%d poisoned); the kernel no longer contends",
			busyTicks, takenTicks, poisoned)
	}
	assertSameRun(t, "fetchcontend", runGrid(t, l, runCfg{spec: spec, noWakeList: true}), got)
}

// TestDeathReleaseReachesLaterSlotsInThePass pins the order a barrier release
// found by own takes effect in, on a GTX 1070 (warp i in subpartition i%4,
// slot i/4). In the tick in which the last warp to die releases the barrier,
// the waiter in a later slot of the dying warp's subpartition is reclassified
// by the same pass; a waiter in an earlier slot has been passed already: it
// is left due (wake bound 0), still in StateBarrier with its interval open,
// for the next tick — as the full scan of the table had it.
func TestDeathReleaseReachesLaterSlotsInThePass(t *testing.T) {
	spec := gpu.GTX1070().WithSMs(1)
	for _, late := range []bool{true, false} {
		l := deathReleaseLaunch(late)
		s := testSMOf(spec)
		s.BeginLaunch(0, 0)
		s.LaunchBlock(l, [3]int64{}, 0)
		blk := residents(s)[0].block
		// A warp has died once own has moved it to draining; reapFinished
		// may already have freed its slot.
		died := func(w *warp) bool {
			sp := &s.subparts[w.subp]
			return sp.draining>>w.slot&1 != 0 || sp.warps[w.slot] != w
		}
		var since [8]uint64
		var dead [8]bool
		released := false
		for guard := 0; s.Busy() && !released; guard++ {
			if guard > 100_000 {
				t.Fatal("SM did not go idle")
			}
			live := blk.liveWarps
			for i, w := range blk.warps {
				since[i], dead[i] = w.since, died(w)
			}
			now := s.Cycle()
			s.Tick()
			if blk.arrived > 0 || blk.liveWarps == live {
				continue // not the tick of a release by a death
			}
			released = true
			checked := 0
			for i, w := range blk.warps {
				if !died(w) || dead[i] {
					continue
				}
				// w died in this tick and released the barrier; its peer in the
				// other slot of its subpartition is a waiter.
				checked++
				peer := blk.warps[i^4]
				sp := &s.subparts[peer.subp]
				passed := peer.since != since[i^4] || sp.readyAll>>peer.slot&1 != 0
				if late && !passed {
					t.Errorf("waiter %d in slot %d after the dying warp's slot %d was not reclassified in the releasing tick at %d", i^4, peer.slot, w.slot, now)
				}
				if !late && (passed || sp.wakeAt[peer.slot] != 0 || peer.state != StateBarrier) {
					t.Errorf("waiter %d in slot %d before the dying warp's slot %d: reclassified %v, bound %d, state %v after the releasing tick at %d; want left due in StateBarrier",
						i^4, peer.slot, w.slot, passed, sp.wakeAt[peer.slot], peer.state, now)
				}
			}
			if checked != 1 {
				t.Errorf("late %v: %d warps died in the releasing tick at %d, want 1", late, checked, now)
			}
		}
		if !released {
			t.Errorf("late %v: no warp's death released the barrier", late)
		}
	}
}

// TestFileAndUnfile drives the wake index's primitives directly on one
// subpartition with stand-in warps, checking it against the table after every
// step: filing at every distance class (due, the wheel's first and last
// cycle, just past it, far), waiting on the port, unfiling from each place —
// the far minimum included, which must then be recomputed — and re-filing the
// far slots as their bounds come near.
func TestFileAndUnfile(t *testing.T) {
	s := testSMOf(gpu.GTX1070().WithSMs(1))
	sp := &s.subparts[0]
	for slot := 0; slot < 8; slot++ {
		sp.warps[slot] = &warp{subp: 0, slot: slot, state: StateNoInstruction}
	}
	const now = 1000
	s.fetchBusy = now + 3
	step := func(what string, at uint64) {
		t.Helper()
		if err := wakeIndexError(s, at); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	for slot, bound := range []uint64{0, now + 1, now + 63, now + 64, now + 65, now + 500, neverWake} {
		sp.file(slot, bound, now)
	}
	sp.wakeAt[7], sp.fetchWait = now+3, 1<<7
	step("filing", now)
	if sp.woken != 1<<0 || sp.far != 1<<3|1<<4|1<<5 || sp.farMin != now+64 || sp.nextBound(now, s.fetchBusy) != now+1 {
		t.Fatalf("filed woken %#x, far %#x (min %d), next bound %d", sp.woken, sp.far, sp.farMin, sp.nextBound(now, s.fetchBusy))
	}
	for _, slot := range []int{3, 1, 7, 0, 2} {
		sp.unfile(slot, now)
		sp.wakeAt[slot] = neverWake
		step(fmt.Sprintf("unfiling slot %d", slot), now)
	}
	if sp.farMin != now+65 || sp.wheelOcc != 0 {
		t.Fatalf("after unfiling the least far bound farMin is %d, wheelOcc %#x", sp.farMin, sp.wheelOcc)
	}
	sp.refileFar(now + 10)
	step("re-filing the far slots", now+10)
	if sp.far != 1<<5 || sp.farMin != now+500 || sp.wheel[(now+65)%wheelSpan] != 1<<4 {
		t.Fatalf("re-filed far %#x (min %d), wheel bucket of slot 4 %#x", sp.far, sp.farMin, sp.wheel[(now+65)%wheelSpan])
	}
}
