package check

import (
	"strings"
	"testing"

	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// TestSameRuns pins what an engine-equivalence pair must share: as many
// launches, equal RunResults launch by launch, and fewer SM ticks on the
// production side.
func TestSameRuns(t *testing.T) {
	run := func(cycles uint64) *sim.RunResult { return &sim.RunResult{Kernel: "k", Cycles: cycles} }
	pair := func(fast, ref []*sim.RunResult, fastTicks, refTicks uint64) (*Recorder, *Recorder) {
		return &Recorder{Runs: fast, Ticks: fastTicks}, &Recorder{Runs: ref, Ticks: refTicks}
	}
	for _, c := range []struct {
		name      string
		fast, ref []*sim.RunResult
		fastTicks uint64
		want      string // "" = equal
	}{
		{"equal", []*sim.RunResult{run(10), run(20)}, []*sim.RunResult{run(10), run(20)}, 5, ""},
		{"launch count", []*sim.RunResult{run(10)}, []*sim.RunResult{run(10), run(20)}, 5, "1 launches on the production device, 2"},
		{"result", []*sim.RunResult{run(10), run(21)}, []*sim.RunResult{run(10), run(20)}, 5, "launch 1 (k) differs from the reference: cycles 21 / 20"},
		{"no skip", []*sim.RunResult{run(10)}, []*sim.RunResult{run(10)}, 30, "skipped no idle cycle"},
	} {
		fast, ref := pair(c.fast, c.ref, c.fastTicks, 30)
		err := SameRuns(fast, ref)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
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
