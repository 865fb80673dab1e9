package check

import (
	"errors"
	"fmt"
	"reflect"

	"gputopdown/internal/sim"
)

// Recorder is the sim.Checker of one side of an engine-equivalence pair: it
// runs the invariant checks on every launch and keeps the RunResult and the
// SM tick count of each launch made while Keep is set. The workloads tests
// run an app back to back on a production and a reference device
// (sim.Device.SetReference), the cupti tests a profiling session against the
// real replay oracle whose first pass runs on the reference; both compare the
// two recorders with SameRuns.
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

// SameRuns requires the launches kept on the production device and on the
// reference to have equal RunResults, launch by launch — cycles, aggregate
// and per-SM counters and trace samples — and the production device to have
// ticked the SMs fewer times: a loop that skips no idle cycle is the
// reference's loop again. It returns nil or every difference it found.
func SameRuns(fast, ref *Recorder) error {
	if len(fast.Runs) != len(ref.Runs) {
		return fmt.Errorf("%d launches on the production device, %d on the reference", len(fast.Runs), len(ref.Runs))
	}
	var errs []error
	if fast.Ticks >= ref.Ticks {
		errs = append(errs, fmt.Errorf("the production device ticked the SMs %d times, the reference %d: it skipped no idle cycle", fast.Ticks, ref.Ticks))
	}
	for i, f := range fast.Runs {
		n := ref.Runs[i]
		if reflect.DeepEqual(f, n) {
			continue
		}
		errs = append(errs, fmt.Errorf("launch %d (%s) differs from the reference: cycles %d / %d, counters equal %t, per-SM equal %t, trace samples %d / %d, trace equal %t",
			i, f.Kernel, f.Cycles, n.Cycles, f.Counters == n.Counters,
			reflect.DeepEqual(f.PerSM, n.PerSM), len(f.Trace), len(n.Trace), reflect.DeepEqual(f.Trace, n.Trace)))
	}
	return errors.Join(errs...)
}
