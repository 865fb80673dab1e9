package sm

import (
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
)

// residents lists the warps resident right now.
func residents(s *SM) []*warp {
	var ws []*warp
	for i := range s.subparts {
		for _, w := range s.subparts[i].warps {
			if w != nil {
				ws = append(ws, w)
			}
		}
	}
	return ws
}

// TestIntervalAccountingMatchesPerCycleSampling pins interval accounting to
// the definition it replaced: every warp resident in a cycle is in exactly
// one state in that cycle. The SM is ticked one cycle at a time; after every
// tick the test adds the state of each warp that was resident in it to its
// own per-state tally (a warp reaped by the tick keeps its last state), and
// Counters() — closed intervals plus open ones — must agree with that tally
// at the end and satisfy StateSum == ActiveWarpCycles at every cycle. Blocks
// also arrive mid-run, so intervals open at a non-zero cycle and in recycled
// warp contexts.
func TestIntervalAccountingMatchesPerCycleSampling(t *testing.T) {
	var seen Counters
	for _, l := range accountingLaunches() {
		s := testSMBacked()
		var sampled [NumWarpStates]uint64
		pending := 3
		for tick := 0; pending > 0 || s.Busy(); tick++ {
			if tick > 2_000_000 {
				t.Fatalf("%s: SM did not go idle", l.Program.Name)
			}
			if pending > 0 && tick%40 == 0 && s.CanAccept(l) {
				s.LaunchBlock(l, [3]int64{}, 0)
				pending--
			}
			ws := residents(s)
			s.Tick()
			for _, w := range ws {
				sampled[w.state]++
			}
			if c := s.Counters(); c.StateSum() != c.ActiveWarpCycles {
				t.Fatalf("%s cycle %d: StateSum %d != ActiveWarpCycles %d", l.Program.Name, s.Cycle(), c.StateSum(), c.ActiveWarpCycles)
			}
		}
		c := s.Counters()
		if c.WarpStateCycles != sampled {
			t.Errorf("%s: interval accounting diverges from per-cycle sampling:\nsampled:  %v\ncounters: %v", l.Program.Name, sampled, c.WarpStateCycles)
		}
		seen.Add(&c)
	}
	// The kernel set must really reach the states it is chosen for.
	for _, st := range []WarpState{StateSelected, StateNotSelected, StateBarrier, StateMembar,
		StateLongScoreboard, StateWait, StateDrain, StateBranchResolving, StateLGThrottle} {
		if seen.WarpStateCycles[st] == 0 {
			t.Errorf("no kernel of the set spent a cycle in %v", st)
		}
	}
	if seen.DivergentBranches == 0 {
		t.Error("no kernel of the set diverged")
	}
}

// TestCountersIsPure pins Counters as a read: it adds the open intervals to a
// copy, so calling it mid-launch changes nothing later, and ResetCounters
// re-anchors the open intervals, so what is counted after a mid-residency
// reset is exactly what happens after it.
func TestCountersIsPure(t *testing.T) {
	for _, l := range accountingLaunches() {
		plain := runOneBlock(t, l, runCfg{ff: true})
		polled := runOneBlock(t, l, runCfg{ff: true, every: 7})
		if plain.ctr != polled.ctr || plain.cycles != polled.cycles {
			t.Errorf("%s: polling Counters every 7 cycles changed the run:\nplain:  %+v\npolled: %+v", l.Program.Name, plain.ctr, polled.ctr)
		}

		// Tick to mid-residency, then compare the tail of an uninterrupted
		// run with a run whose counters were reset there.
		mid := plain.cycles / 2
		tail := func(reset bool) Counters {
			s := testSMBacked()
			s.LaunchBlock(l, [3]int64{}, 0)
			for s.Cycle() < mid {
				s.Tick()
			}
			before := s.Counters()
			if again := s.Counters(); again != before {
				t.Errorf("%s: two consecutive Counters calls differ", l.Program.Name)
			}
			if reset {
				s.ResetCounters()
				before = Counters{}
			}
			for s.Busy() {
				s.Tick()
				s.AdvanceTo(s.NextWakeup())
			}
			return s.Counters().Sub(&before)
		}
		if want, got := tail(false), tail(true); want != got {
			t.Errorf("%s: counters after a reset at cycle %d are not the tail of the uninterrupted run:\nwant: %+v\ngot:  %+v", l.Program.Name, mid, want, got)
		}
	}
}

// TestManyWarpSlots runs a subpartition with more warp slots than any real
// GPU has (96, all occupied: three 1024-thread blocks on a one-subpartition
// SM). gpu.Spec.Validate puts no ceiling on the field, so neither may the
// cycle loop.
func TestManyWarpSlots(t *testing.T) {
	spec := *gpu.QuadroRTX4000().WithSMs(1)
	spec.SubpartitionsPerSM = 1
	spec.WarpSlotsPerSubpartition = 96
	spec.MaxThreadsPerSM = 96 * kernel.WarpSize
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	l := saturatingLaunch()
	run := func(ff bool) (Counters, uint64) {
		s := testSMOf(&spec)
		for i := 0; i < 3; i++ {
			if !s.CanAccept(l) {
				t.Fatalf("block %d does not fit", i)
			}
			s.LaunchBlock(l, [3]int64{int64(i)}, i)
		}
		if s.residentThreads != 3072 || s.subparts[0].nres != 96 {
			t.Fatalf("resident: %d threads, %d warps in the subpartition", s.residentThreads, s.subparts[0].nres)
		}
		for guard := 0; s.Busy(); guard++ {
			if guard > 2_000_000 {
				t.Fatal("SM did not go idle")
			}
			s.Tick()
			if ff {
				s.AdvanceTo(s.NextWakeup())
			}
		}
		return s.Counters(), s.Cycle()
	}
	naive, naiveCycles := run(false)
	ff, ffCycles := run(true)
	if naive != ff || naiveCycles != ffCycles {
		t.Errorf("counters differ with and without fast-forward:\nnaive: %+v\nff:    %+v", naive, ff)
	}
	if want := uint64(96 * l.Program.Len()); naive.InstExecuted < want {
		t.Errorf("InstExecuted %d, want at least %d (96 warps through the whole program)", naive.InstExecuted, want)
	}
}
