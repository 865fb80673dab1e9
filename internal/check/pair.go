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
// run an app back to back on a fast-forward and a naive-loop device, the
// cupti tests a profiling session against the real replay oracle whose first
// pass runs on the naive loop; both compare the two recorders with SameRuns.
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

// SameRuns requires the launches kept on the fast-forward loop and on the
// naive loop to have equal RunResults, launch by launch — cycles, aggregate
// and per-SM counters and trace samples — and the fast-forward loop to have
// ticked the SMs fewer times: a loop that skips no idle cycle is the naive
// loop again. It returns nil or every difference it found.
func SameRuns(fast, naive *Recorder) error {
	if len(fast.Runs) != len(naive.Runs) {
		return fmt.Errorf("%d launches on the fast-forward loop, %d on the naive loop", len(fast.Runs), len(naive.Runs))
	}
	var errs []error
	if fast.Ticks >= naive.Ticks {
		errs = append(errs, fmt.Errorf("fast-forward loop ticked the SMs %d times, the naive loop %d: it skipped no idle cycle", fast.Ticks, naive.Ticks))
	}
	for i, f := range fast.Runs {
		n := naive.Runs[i]
		if reflect.DeepEqual(f, n) {
			continue
		}
		errs = append(errs, fmt.Errorf("launch %d (%s) differs from the naive loop: cycles %d / %d, counters equal %t, per-SM equal %t, trace samples %d / %d, trace equal %t",
			i, f.Kernel, f.Cycles, n.Cycles, f.Counters == n.Counters,
			reflect.DeepEqual(f.PerSM, n.PerSM), len(f.Trace), len(n.Trace), reflect.DeepEqual(f.Trace, n.Trace)))
	}
	return errors.Join(errs...)
}
