package check

import (
	"strings"
	"testing"

	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// TestSameRuns pins what the two sides of an equivalence pair must share: as
// many launches, and equal RunResults launch by launch.
func TestSameRuns(t *testing.T) {
	run := func(cycles uint64) *sim.RunResult { return &sim.RunResult{Kernel: "k", Cycles: cycles} }
	for _, c := range []struct {
		name      string
		got, want []*sim.RunResult
		err       string // "" = equal
	}{
		{"equal", []*sim.RunResult{run(10), run(20)}, []*sim.RunResult{run(10), run(20)}, ""},
		{"launch count", []*sim.RunResult{run(10)}, []*sim.RunResult{run(10), run(20)}, "1 launches kept, want 2"},
		{"result", []*sim.RunResult{run(10), run(21)}, []*sim.RunResult{run(10), run(20)}, "launch 1 (k) differs: cycles 21 / 20"},
	} {
		err := SameRuns(&Recorder{Runs: c.got}, &Recorder{Runs: c.want})
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: unexpected %v", c.name, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.err)
		}
	}
}

// TestRecorderKeeps checks that a recorder keeps the launches made while
// Keep is set, with their SM ticks, and forwards every launch to the
// invariant checks.
func TestRecorderKeeps(t *testing.T) {
	d := sim.NewDevice(testSpec())
	rec := NewRecorder()
	d.SetChecker(rec)
	l := &kernel.Launch{
		Program: testProgram(),
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{d.Alloc(256 * 4)},
	}
	first := d.MustLaunch(l)
	ticks := d.LastLaunchTicks()
	rec.Keep = false
	bad := *d.MustLaunch(l)
	if len(rec.Runs) != 1 || rec.Runs[0] != first || rec.Ticks != ticks {
		t.Errorf("kept %d launches, %d ticks; want the first launch and its %d ticks", len(rec.Runs), rec.Ticks, ticks)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("invariants violated on a clean run: %v", err)
	}
	bad.Counters.InstExecuted = bad.Counters.InstIssued + 1
	rec.CheckLaunch(d, &bad)
	if rec.Err() == nil {
		t.Error("a corrupted launch passed the recorder's invariant checks")
	}
}
