package check

import (
	"errors"
	"fmt"
	"reflect"

	"gputopdown/internal/sim"
)

// Recorder is the sim.Checker of one side of an equivalence pair: it runs
// the invariant checks on every launch and keeps the RunResult and the SM
// tick count of each launch made while Keep is set. The workloads tests run
// an app back to back on a production and a reference device
// (sim.Device.SetReference), the one sweep of the reference per (app, GPU);
// the cupti tests run a profiling session against the real replay oracle,
// both on production devices. Both compare the two recorders with SameRuns
// and then their tick counts.
type Recorder struct {
	*Invariants
	Keep  bool
	Runs  []*sim.RunResult
	Ticks uint64
}

// NewRecorder builds a recorder that keeps every launch.
func NewRecorder() *Recorder { return &Recorder{Invariants: New(), Keep: true} }

var _ sim.Checker = (*Recorder)(nil)

// CheckLaunch runs the invariant checks and keeps the launch if Keep is set.
func (r *Recorder) CheckLaunch(d *sim.Device, res *sim.RunResult) {
	r.Invariants.CheckLaunch(d, res)
	if r.Keep {
		r.Runs = append(r.Runs, res)
		r.Ticks += d.LastLaunchTicks()
	}
}

// SameRuns requires the launches kept by two recorders to have equal
// RunResults, launch by launch — cycles, aggregate and per-SM counters and
// trace samples. It returns nil or every difference it found.
func SameRuns(got, want *Recorder) error {
	if len(got.Runs) != len(want.Runs) {
		return fmt.Errorf("%d launches kept, want %d", len(got.Runs), len(want.Runs))
	}
	var errs []error
	for i, g := range got.Runs {
		w := want.Runs[i]
		if reflect.DeepEqual(g, w) {
			continue
		}
		errs = append(errs, fmt.Errorf("launch %d (%s) differs: cycles %d / %d, counters equal %t, per-SM equal %t, trace samples %d / %d, trace equal %t",
			i, g.Kernel, g.Cycles, w.Cycles, g.Counters == w.Counters,
			reflect.DeepEqual(g.PerSM, w.PerSM), len(g.Trace), len(w.Trace), reflect.DeepEqual(g.Trace, w.Trace)))
	}
	return errors.Join(errs...)
}
