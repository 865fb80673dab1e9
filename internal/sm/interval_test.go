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

// TestIntervalAccountingMatchesPerCycleSampling pins the production engine's
// accounting — intervals for warps on the wake table, group charges for warps
// in ready sets — to the definition it replaced: every warp resident in a
// cycle is in exactly one state in that cycle. A production SM and a reference
// SM (noWakeList: every warp classified from scratch every tick, so w.state
// is its state in that tick) are ticked in lockstep, one cycle at a time;
// after every tick the test adds the state of each warp that was resident on
// the reference SM to its own per-state tally (a warp reaped by the tick keeps
// its last state). The production Counters() — closed intervals, open ones
// and group charges — must equal that tally at the end, and StateSum ==
// ActiveWarpCycles must hold on both SMs at every cycle. Blocks also arrive
// mid-run, so intervals open at a non-zero cycle and in recycled warp
// contexts.
func TestIntervalAccountingMatchesPerCycleSampling(t *testing.T) {
	var seen Counters
	for _, l := range accountingLaunches(gpu.QuadroRTX4000()) {
		prod, ref := testSMBacked(), testSMBacked()
		ref.noWakeList = true
		var sampled [NumWarpStates]uint64
		pending := 3
		for tick := 0; pending > 0 || ref.Busy(); tick++ {
			if tick > 2_000_000 {
				t.Fatalf("%s: SM did not go idle", l.Program.Name)
			}
			if prod.Busy() != ref.Busy() || prod.CanAccept(l) != ref.CanAccept(l) {
				t.Fatalf("%s cycle %d: residency diverged between the engines", l.Program.Name, ref.Cycle())
			}
			if pending > 0 && tick%40 == 0 && ref.CanAccept(l) {
				prod.LaunchBlock(l, [3]int64{}, 0)
				ref.LaunchBlock(l, [3]int64{}, 0)
				pending--
			}
			ws := residents(ref)
			prod.Tick()
			ref.Tick()
			for _, w := range ws {
				sampled[w.state]++
			}
			for _, s := range []*SM{prod, ref} {
				if c := s.Counters(); c.StateSum() != c.ActiveWarpCycles {
					t.Fatalf("%s cycle %d (reference engine: %v): StateSum %d != ActiveWarpCycles %d",
						l.Program.Name, s.Cycle(), s.noWakeList, c.StateSum(), c.ActiveWarpCycles)
				}
			}
		}
		c := prod.Counters()
		if c.WarpStateCycles != sampled {
			t.Errorf("%s: production accounting diverges from per-cycle sampling of the reference:\nsampled:  %v\ncounters: %v", l.Program.Name, sampled, c.WarpStateCycles)
		}
		if rc := ref.Counters(); rc != c {
			t.Errorf("%s: engines end with different counters:\nreference:  %+v\nproduction: %+v", l.Program.Name, rc, c)
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
// copy, so calling it mid-launch — twice in a row, or every 7 cycles —
// changes nothing later.
func TestCountersIsPure(t *testing.T) {
	for _, l := range accountingLaunches(gpu.QuadroRTX4000()) {
		plain := runGrid(t, l, runCfg{ff: true})
		polled := runGrid(t, l, runCfg{ff: true, every: 7})
		if plain.ctr != polled.ctr || plain.cycles != polled.cycles {
			t.Errorf("%s: polling Counters every 7 cycles changed the run:\nplain:  %+v\npolled: %+v", l.Program.Name, plain.ctr, polled.ctr)
		}
		s := testSMBacked()
		s.LaunchBlock(l, [3]int64{}, 0)
		for s.Cycle() < plain.cycles/2 {
			s.Tick()
		}
		if a, b := s.Counters(), s.Counters(); a != b {
			t.Errorf("%s: two consecutive Counters calls differ", l.Program.Name)
		}
	}
}

// TestManyWarpSlots runs a subpartition with as many warp slots as
// gpu.Spec.Validate admits — 64, the width of a ready-set mask, four times
// what either real GPU has — all occupied: two 1024-thread blocks on a
// one-subpartition SM, so the top bit of every mask is in use.
func TestManyWarpSlots(t *testing.T) {
	spec := *gpu.QuadroRTX4000().WithSMs(1)
	spec.SubpartitionsPerSM = 1
	spec.WarpSlotsPerSubpartition = 64
	spec.MaxThreadsPerSM = 64 * kernel.WarpSize
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	l := saturatingLaunch()
	run := func(ff bool) (Counters, uint64) {
		s := testSMOf(&spec)
		for i := 0; i < 2; i++ {
			if !s.CanAccept(l) {
				t.Fatalf("block %d does not fit", i)
			}
			s.LaunchBlock(l, [3]int64{int64(i)}, i)
		}
		if s.residentThreads != 2048 || s.subparts[0].nres != 64 {
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
	if want := uint64(64 * l.Program.Len()); naive.InstExecuted < want {
		t.Errorf("InstExecuted %d, want at least %d (64 warps through the whole program)", naive.InstExecuted, want)
	}
}
