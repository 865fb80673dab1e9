package cupti

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// replayOracle is real CUPTI kernel replay: every scheduled pass restores the
// pre-launch memory, flushes the caches and launches the kernel again, and
// the pass keeps only its own counters of that run. It is the oracle the
// Session's replay accounting (one launch, N merges, N charges) is proven
// against. It borrows the schedule, collection mode and flush-cost model of
// a Session that itself never profiles. Every pass runs on the production
// device; the first, or the one native run of an invocation sampling skips,
// is the one its device's recorder keeps. The production engine is held to
// the reference by internal/workloads' native pair.
type replayOracle struct {
	ref         *Session
	rec         *check.Recorder
	sampleEvery int
	invocations map[string]int
	lastSampled map[string]pmu.Values

	native, profiled uint64
}

func newReplayOracle(dev *sim.Device, rec *check.Recorder, request []pmu.CounterID, mode Mode, sampleEvery int) (*replayOracle, error) {
	ref, err := NewSession(dev, request, mode)
	if err != nil {
		return nil, err
	}
	return &replayOracle{
		ref:         ref,
		rec:         rec,
		sampleEvery: sampleEvery,
		invocations: map[string]int{},
		lastSampled: map[string]pmu.Values{},
	}, nil
}

// launch runs pass i of an invocation; the recorder keeps the first.
func (o *replayOracle) launch(l *kernel.Launch, i int) (*sim.RunResult, error) {
	o.rec.Keep = i == 0
	return o.ref.dev.Launch(l)
}

// Profile replays one launch the real way (or runs it natively once when
// sampling skips the invocation).
func (o *replayOracle) Profile(l *kernel.Launch) (*KernelRecord, error) {
	dev, name := o.ref.dev, l.Program.Name
	inv := o.invocations[name]
	o.invocations[name]++
	rec := &KernelRecord{Kernel: name, Invocation: inv}

	if o.sampleEvery > 1 && inv%o.sampleEvery != 0 {
		res, err := o.launch(l, 0)
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
		res, err := o.launch(l, i)
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

// profiledRun is an app's run under one launchProfiler.
type profiledRun struct {
	out              []launchOutcome
	native, profiled uint64
	rec              *check.Recorder
}

// runApp executes an app on a fresh production device, with the given
// trace interval and a recorder attached, profiling every launch with the
// profiler mk builds for that device.
func runApp(t *testing.T, app *workloads.App, spec *gpu.Spec, traceInterval uint64,
	mk func(*sim.Device, *check.Recorder) (launchProfiler, error)) profiledRun {
	t.Helper()
	dev := sim.NewDevice(spec)
	if traceInterval > 0 {
		dev.EnableTrace(traceInterval)
	}
	r := profiledRun{rec: check.NewRecorder()}
	dev.SetChecker(r.rec)
	p, err := mk(dev, r.rec)
	if err != nil {
		t.Fatal(err)
	}
	err = app.Execute(dev, func(l *kernel.Launch) error {
		rec, err := p.Profile(l)
		if err != nil {
			return err
		}
		r.out = append(r.out, launchOutcome{rec: *rec, memHash: dev.Storage.HashAllocated()})
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", app.ID(), err)
	}
	if err := r.rec.Err(); err != nil {
		t.Fatalf("%s: %v", app.ID(), err)
	}
	r.native, r.profiled = p.Overhead()
	return r
}

// compareToOracle runs app through a Session on a production device and
// through the replay oracle on a second one and requires every launch's
// merged values, cycles, SMs used and post-launch memory, and the
// session-level overhead totals, to be equal — and every session launch's
// RunResult and SM ticks to equal those of the oracle's first pass
// (check.SameRuns).
func compareToOracle(t *testing.T, app *workloads.App, spec *gpu.Spec, request []pmu.CounterID, mode Mode, sampleEvery int, traceInterval uint64) {
	t.Helper()
	got := runApp(t, app, spec, traceInterval, func(dev *sim.Device, _ *check.Recorder) (launchProfiler, error) {
		s, err := NewSession(dev, request, mode)
		if err != nil {
			return nil, err
		}
		s.SetSampling(sampleEvery)
		return s, nil
	})
	want := runApp(t, app, spec, traceInterval, func(dev *sim.Device, rec *check.Recorder) (launchProfiler, error) {
		return newReplayOracle(dev, rec, request, mode, sampleEvery)
	})

	if len(got.out) != len(want.out) {
		t.Fatalf("session profiled %d launches, oracle %d", len(got.out), len(want.out))
	}
	for i := range want.out {
		g, w := got.out[i], want.out[i]
		if !reflect.DeepEqual(g.rec, w.rec) {
			t.Errorf("launch %d (%s): record differs from real replay:\n  session: %+v\n  oracle:  %+v",
				i, w.rec.Kernel, g.rec, w.rec)
		}
		if g.memHash != w.memHash {
			t.Errorf("launch %d (%s): post-launch memory differs from real replay", i, w.rec.Kernel)
		}
	}
	if got.native != want.native || got.profiled != want.profiled {
		t.Errorf("overhead (native, profiled) = (%d, %d), real replay (%d, %d)",
			got.native, got.profiled, want.native, want.profiled)
	}
	if err := check.SameRuns(got.rec, want.rec); err != nil {
		t.Errorf("session against the oracle's first pass: %v", err)
	}
	if got.rec.Ticks != want.rec.Ticks {
		t.Errorf("the session ticked the SMs %d times, the oracle's first pass %d", got.rec.Ticks, want.rec.Ticks)
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

// oracleSpec is the device model of an oracle case and the number of
// scheduled passes it replays: 4 SMs and the first two passes (one restore →
// flush → relaunch per launch, which is the whole replay property) to keep
// within the tier-1 budget, the full model and the full schedule (0) under
// GOLDEN_FULL=1.
func oracleSpec(t *testing.T, id string) (*gpu.Spec, int) {
	t.Helper()
	spec, ok := gpu.Lookup(id)
	if !ok {
		t.Fatalf("unknown gpu %q", id)
	}
	if os.Getenv("GOLDEN_FULL") != "" {
		return spec, 0
	}
	return spec.WithSMs(4), 2
}

// TestDeterminismReplayOracle proves that replay accounting equals real
// replay: for every suite app on both evaluation GPUs the Session, which
// simulates each launch once, must agree with the N-pass oracle on every
// launch and on the Fig. 13 totals, and its launches with the oracle's
// first pass. Three apps also run traced every 64 cycles, so every trace
// sample of a flushed launch lands on the oracle's cycle.
func TestDeterminismReplayOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling matrix skipped in -short mode")
	}
	run := func(app *workloads.App, id, suffix string, traceInterval uint64) {
		spec, maxPasses := oracleSpec(t, id)
		t.Run(app.ID()+"/"+id+suffix, func(t *testing.T) {
			t.Parallel()
			compareToOracle(t, app, spec, topDownRequest(t, spec, maxPasses), ModeSMPC, 1, traceInterval)
		})
	}
	for _, suite := range workloads.Suites() {
		for _, app := range workloads.BySuite(suite) {
			for _, id := range gpu.IDs() {
				run(app, id, "", 0)
			}
		}
	}
	for _, id := range []struct{ suite, name string }{
		{"rodinia", "srad_v2"},                     // memory-bound: longest skips
		{"rodinia", "backprop"},                    // barriers + shared memory
		{"cudasamples", "binaryPartitionCG_tile8"}, // divergence
	} {
		app, ok := workloads.Lookup(id.suite, id.name)
		if !ok {
			t.Fatalf("unknown app %s/%s", id.suite, id.name)
		}
		run(app, "rtx4000", "/trace-64", 64)
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
	spec, _ := oracleSpec(t, "rtx4000")
	request := topDownRequest(t, spec, 0)
	t.Run("hwpm", func(t *testing.T) { compareToOracle(t, app, spec, request, ModeHWPM, 1, 0) })
	t.Run("sampling-3", func(t *testing.T) { compareToOracle(t, app, spec, request, ModeSMPC, 3, 0) })
}
