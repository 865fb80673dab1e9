package cupti

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// replayOracle is real CUPTI kernel replay: every scheduled pass restores the
// pre-launch memory, flushes the caches and launches the kernel again, and
// the pass keeps only its own counters of that run. It is the reference the
// Session's replay accounting (one launch, N merges, N charges) is proven
// against. It borrows the schedule, collection mode and flush-cost model of
// a Session that itself never profiles.
type replayOracle struct {
	ref         *Session
	sampleEvery int
	invocations map[string]int
	lastSampled map[string]pmu.Values

	native, profiled uint64
}

func newReplayOracle(dev *sim.Device, request []pmu.CounterID, mode Mode, sampleEvery int) (*replayOracle, error) {
	ref, err := NewSession(dev, request, mode)
	if err != nil {
		return nil, err
	}
	return &replayOracle{
		ref:         ref,
		sampleEvery: sampleEvery,
		invocations: map[string]int{},
		lastSampled: map[string]pmu.Values{},
	}, nil
}

// Profile replays one launch the real way (or runs it natively once when
// sampling skips the invocation).
func (o *replayOracle) Profile(l *kernel.Launch) (*KernelRecord, error) {
	dev, name := o.ref.dev, l.Program.Name
	inv := o.invocations[name]
	o.invocations[name]++
	rec := &KernelRecord{Kernel: name, Invocation: inv}

	if o.sampleEvery > 1 && inv%o.sampleEvery != 0 {
		res, err := dev.Launch(l)
		if err != nil {
			return nil, err
		}
		rec.Cycles, rec.SMsUsed, rec.Passes, rec.Values = res.Cycles, res.SMsUsed, 1, o.lastSampled[name]
		o.native += res.Cycles
		o.profiled += res.Cycles
		return rec, nil
	}

	passes := o.ref.sched.Passes
	rec.Passes, rec.Sampled, rec.Values = len(passes), true, pmu.Values{}
	snap := dev.Storage.Snapshot()
	for i, pass := range passes {
		if i > 0 {
			dev.Storage.Restore(snap)
		}
		dev.FlushCaches()
		res, err := dev.Launch(l)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		counters := o.ref.collect(res)
		rec.Values.Merge(pass, &counters)
		if i == 0 {
			rec.Cycles, rec.SMsUsed = res.Cycles, res.SMsUsed
			o.native += res.Cycles
		}
		o.profiled += res.Cycles + o.ref.flushCycles()
	}
	o.lastSampled[name] = rec.Values
	return rec, nil
}

func (o *replayOracle) Overhead() (native, profiled uint64) { return o.native, o.profiled }

// launchProfiler is what the Session and the oracle have in common.
type launchProfiler interface {
	Profile(*kernel.Launch) (*KernelRecord, error)
	Overhead() (native, profiled uint64)
}

// launchOutcome is what one profiled launch left behind.
type launchOutcome struct {
	rec     KernelRecord
	memHash uint64
}

// runApp executes an app on a fresh device, profiling every launch with the
// profiler mk builds for that device, and returns the per-launch outcomes
// plus the profiler's (native, profiled) totals.
func runApp(t *testing.T, app *workloads.App, spec *gpu.Spec, mk func(*sim.Device) (launchProfiler, error)) ([]launchOutcome, uint64, uint64) {
	t.Helper()
	dev := sim.NewDevice(spec)
	p, err := mk(dev)
	if err != nil {
		t.Fatal(err)
	}
	var out []launchOutcome
	err = app.Execute(dev, func(l *kernel.Launch) error {
		rec, err := p.Profile(l)
		if err != nil {
			return err
		}
		out = append(out, launchOutcome{rec: *rec, memHash: dev.Storage.HashAllocated()})
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", app.ID(), err)
	}
	native, profiled := p.Overhead()
	return out, native, profiled
}

// compareToOracle runs app through a Session and through the replay oracle on
// a second device and requires every launch's merged values, cycles, SMs
// used and post-launch memory, and the session-level overhead totals, to be
// equal.
func compareToOracle(t *testing.T, app *workloads.App, spec *gpu.Spec, request []pmu.CounterID, mode Mode, sampleEvery int) {
	t.Helper()
	got, gotNative, gotProfiled := runApp(t, app, spec, func(dev *sim.Device) (launchProfiler, error) {
		s, err := NewSession(dev, request, mode)
		if err != nil {
			return nil, err
		}
		s.SetSampling(sampleEvery)
		return s, nil
	})
	want, wantNative, wantProfiled := runApp(t, app, spec, func(dev *sim.Device) (launchProfiler, error) {
		return newReplayOracle(dev, request, mode, sampleEvery)
	})

	if len(got) != len(want) {
		t.Fatalf("session profiled %d launches, oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.rec, w.rec) {
			t.Errorf("launch %d (%s): record differs from real replay:\n  session: %+v\n  oracle:  %+v",
				i, w.rec.Kernel, g.rec, w.rec)
		}
		if g.memHash != w.memHash {
			t.Errorf("launch %d (%s): post-launch memory differs from real replay", i, w.rec.Kernel)
		}
	}
	if gotNative != wantNative || gotProfiled != wantProfiled {
		t.Errorf("overhead (native, profiled) = (%d, %d), real replay (%d, %d)",
			gotNative, gotProfiled, wantNative, wantProfiled)
	}
}

// topDownRequest is the level-3 Top-Down counter request the profiler issues
// on spec. With maxPasses > 0 it is cut to the counters of the first
// maxPasses scheduled passes, so the oracle replays each launch that many
// times instead of 8 or 9.
func topDownRequest(t *testing.T, spec *gpu.Spec, maxPasses int) []pmu.CounterID {
	t.Helper()
	request, err := core.NewAnalyzer(spec, core.Level3).CounterRequest()
	if err != nil {
		t.Fatal(err)
	}
	if maxPasses <= 0 {
		return request
	}
	sched, err := pmu.BuildSchedule(request)
	if err != nil {
		t.Fatal(err)
	}
	var cut []pmu.CounterID
	for _, pass := range sched.Passes[:maxPasses] {
		cut = append(cut, pass...)
	}
	if sched, err = pmu.BuildSchedule(cut); err != nil {
		t.Fatal(err)
	}
	if sched.NumPasses() != maxPasses {
		t.Fatalf("cut request schedules onto %d passes, want %d", sched.NumPasses(), maxPasses)
	}
	return cut
}

// TestDeterminismReplayOracle proves that replay accounting equals real
// replay: for every suite app on both evaluation GPUs the Session, which
// simulates each launch once, must agree with the N-pass oracle on every
// launch and on the Fig. 13 totals. The default run keeps within the tier-1
// budget with reduced-SM devices and the first two passes of the schedule
// (one restore → flush → relaunch per launch, which is the whole property);
// ORACLE_FULL=1 (the CI determinism job) uses the full device models and the
// full schedule.
func TestDeterminismReplayOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling matrix skipped in -short mode")
	}
	full := os.Getenv("ORACLE_FULL") != ""
	specs := []struct {
		name string
		mk   func() *gpu.Spec
	}{
		{"rtx4000", gpu.QuadroRTX4000},
		{"gtx1070", gpu.GTX1070},
	}
	for _, suite := range workloads.Suites() {
		for _, app := range workloads.BySuite(suite) {
			for _, s := range specs {
				app, s := app, s
				t.Run(app.ID()+"/"+s.name, func(t *testing.T) {
					t.Parallel()
					spec, maxPasses := s.mk(), 0
					if !full {
						spec, maxPasses = spec.WithSMs(4), 2
					}
					compareToOracle(t, app, spec, topDownRequest(t, spec, maxPasses), ModeSMPC, 1)
				})
			}
		}
	}
}

// TestDeterminismReplayOracleModes repeats the oracle comparison, on the full
// schedule, under HWPM collection and under 1-in-3 sampling, whose skipped
// invocations run natively and inherit the last sampled values.
func TestDeterminismReplayOracleModes(t *testing.T) {
	app, ok := workloads.Lookup("rodinia", "bfs")
	if !ok {
		t.Fatal("rodinia/bfs missing")
	}
	spec := gpu.QuadroRTX4000().WithSMs(4)
	request := topDownRequest(t, spec, 0)
	t.Run("hwpm", func(t *testing.T) { compareToOracle(t, app, spec, request, ModeHWPM, 1) })
	t.Run("sampling-3", func(t *testing.T) { compareToOracle(t, app, spec, request, ModeSMPC, 3) })
}
