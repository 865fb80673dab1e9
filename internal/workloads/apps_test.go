package workloads_test

import (
	"os"
	"strings"
	"sync"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// Every suite app runs natively here, back to back without cache flushes —
// as Profiler.Timeline and sampled-out invocations run it — on every device
// model at 4 SMs (the full models under GOLDEN_FULL=1), on a production and
// on a reference device (sim.Device.SetReference), each under the invariant
// checker. TestEngineEquivalenceAllApps compares the two launch for launch;
// the Test*AppsRun tests check the production run's counters. The
// production run of an (app, GPU) is made once and shared by both. The
// profiled launches — flushed, replayed and merged — are checked the same way
// by internal/cupti's replay oracle.

var full = os.Getenv("GOLDEN_FULL") != ""

// spec is the device model a native run uses.
func spec(t *testing.T, id string) *gpu.Spec {
	t.Helper()
	s, ok := gpu.Lookup(id)
	if !ok {
		t.Fatalf("unknown gpu %q", id)
	}
	if full {
		return s
	}
	return s.WithSMs(4)
}

// nativeRun is an app's run on one device: what its recorder kept, and the
// first launch error or invariant violation.
type nativeRun struct {
	rec *check.Recorder
	err error
}

func runNative(a *workloads.App, spec *gpu.Spec, reference bool, traceInterval uint64) nativeRun {
	dev := sim.NewDevice(spec)
	dev.SetReference(reference)
	if traceInterval > 0 {
		dev.EnableTrace(traceInterval)
	}
	rec := check.NewRecorder()
	dev.SetChecker(rec)
	err := a.Execute(dev, func(l *kernel.Launch) error {
		_, err := dev.Launch(l)
		return err
	})
	if err == nil {
		err = rec.Err()
	}
	return nativeRun{rec, err}
}

// fastRuns holds the production run of each "suite/app/gpu", made by
// whichever test asks for it first.
var fastRuns sync.Map // string → *sharedRun

type sharedRun struct {
	once sync.Once
	nativeRun
}

func fastRun(a *workloads.App, id string, spec *gpu.Spec) nativeRun {
	v, _ := fastRuns.LoadOrStore(a.ID()+"/"+id, &sharedRun{})
	s := v.(*sharedRun)
	s.once.Do(func() { s.nativeRun = runNative(a, spec, false, 0) })
	return s.nativeRun
}

// samePair requires both runs to have succeeded and to be equal launch for
// launch, with fewer SM ticks on the production side (check.SameRuns).
func samePair(t *testing.T, fast, ref nativeRun) {
	t.Helper()
	if fast.err != nil {
		t.Fatalf("production device: %v", fast.err)
	}
	if ref.err != nil {
		t.Fatalf("reference device: %v", ref.err)
	}
	if err := check.SameRuns(fast.rec, ref.rec); err != nil {
		t.Error(err)
	}
}

// TestEngineEquivalenceAllApps pins the production loop to its oracle: for
// every suite app on both paper GPUs, each launch's RunResult (Cycles,
// Counters, PerSM, Trace) must be equal between the reference device — the
// naive per-cycle loop, every warp classified from scratch on every tick — and
// the production one.
func TestEngineEquivalenceAllApps(t *testing.T) {
	for _, suite := range workloads.Suites() {
		for _, a := range workloads.BySuite(suite) {
			for _, id := range gpu.IDs() {
				a, id, s := a, id, spec(t, id)
				t.Run(a.ID()+"/"+strings.ToLower(s.Architecture), func(t *testing.T) {
					t.Parallel()
					samePair(t, fastRun(a, id, s), runNative(a, s, true, 0))
				})
			}
		}
	}
}

// TestEngineEquivalenceWithTracing repeats the equivalence check with the
// intra-kernel timeline enabled on a representative subset: trace samples
// are the finest-grained observable (one counter delta per 64 cycles) and
// the fast-forward engine must land every sample on the exact cycle the
// reference does.
func TestEngineEquivalenceWithTracing(t *testing.T) {
	apps := []struct{ suite, name string }{
		{"rodinia", "srad_v2"},                     // memory-bound: longest skips
		{"rodinia", "backprop"},                    // barriers + shared memory
		{"cudasamples", "binaryPartitionCG_tile8"}, // divergence
	}
	for _, id := range apps {
		a, ok := workloads.Lookup(id.suite, id.name)
		if !ok {
			t.Fatalf("unknown app %s/%s", id.suite, id.name)
		}
		s := spec(t, "rtx4000")
		t.Run(a.ID(), func(t *testing.T) {
			t.Parallel()
			samePair(t, runNative(a, s, false, 64), runNative(a, s, true, 64))
		})
	}
}

// checkSane requires a native run to have launched kernels that executed
// instructions, with the warp-state closure holding and no fewer issued than
// executed instructions over the whole app.
func checkSane(t *testing.T, id string, runs []*sim.RunResult) {
	t.Helper()
	if len(runs) == 0 {
		t.Fatalf("%s: no kernels launched", id)
	}
	total := runs[0].Counters
	for _, r := range runs[1:] {
		total.Add(&r.Counters)
	}
	if total.InstExecuted == 0 || total.ThreadInstExecuted == 0 {
		t.Errorf("%s: no instructions executed (warp %d, thread %d)", id, total.InstExecuted, total.ThreadInstExecuted)
	}
	if total.StateSum() != total.ActiveWarpCycles {
		t.Errorf("%s: state closure violated: %d != %d", id, total.StateSum(), total.ActiveWarpCycles)
	}
	if total.InstIssued < total.InstExecuted {
		t.Errorf("%s: issued %d < executed %d", id, total.InstIssued, total.InstExecuted)
	}
}

// appsRun checks every app's production run on every device model.
func appsRun(t *testing.T, apps []*workloads.App) {
	for _, a := range apps {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			for _, id := range gpu.IDs() {
				r := fastRun(a, id, spec(t, id))
				if r.err != nil {
					t.Fatalf("%s: %v", id, r.err)
				}
				checkSane(t, id, r.rec.Runs)
			}
		})
	}
}

func TestRodiniaAppsRun(t *testing.T) { appsRun(t, workloads.Rodinia()) }

func TestAltisAppsRun(t *testing.T) { appsRun(t, workloads.Altis()) }

func TestSHOCAppsRun(t *testing.T) { appsRun(t, workloads.SHOC()) }

func TestCUDASamplesRun(t *testing.T) { appsRun(t, workloads.CUDASamples()) }
