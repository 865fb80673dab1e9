package gputopdown

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// idle returns the pool's idle devices, least recently released first.
func idle() []*sim.Device {
	idleDevices.Lock()
	defer idleDevices.Unlock()
	return slices.Clone(idleDevices.devs)
}

// emptyPool drops every idle device, so the next run of any profiler builds
// a new one.
func emptyPool() {
	idleDevices.Lock()
	idleDevices.devs = nil
	idleDevices.Unlock()
}

// allocatedBy returns the bytes profiling app on p allocates.
func allocatedBy(t *testing.T, p *Profiler, app *App) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.ProfileApp(context.Background(), app); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReusedProfilerAllocs: a profiler's second run of an application takes a
// reset device instead of building one, so it allocates a small fraction of
// what the first run, which built the device, allocated.
func TestReusedProfilerAllocs(t *testing.T) {
	app, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	p := NewProfiler(QuadroRTX4000())
	first, second := allocatedBy(t, p, app), allocatedBy(t, p, app)
	if second*4 > first {
		t.Errorf("the second profile of %s allocated %d bytes, the first %d; want at most 25 %%", app.ID(), second, first)
	}
}

// TestFreshProfilerAllocs: a second fresh profiler of the same GPU model,
// built from its own spec value, takes the device the first one released, so
// its run allocates a small fraction of what the first run, which built the
// device, allocated.
func TestFreshProfilerAllocs(t *testing.T) {
	app, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	first := allocatedBy(t, NewProfiler(QuadroRTX4000()), app)
	second := allocatedBy(t, NewProfiler(QuadroRTX4000()), app)
	if second*4 > first {
		t.Errorf("a second fresh profiler's profile of %s allocated %d bytes, the first's %d; want at most 25 %%", app.ID(), second, first)
	}
}

// TestIdleDevicesBounded: releasing more devices than maxIdleDevices, each of
// a distinct model, keeps the most recently released ones and drops the
// least recently released; a profiler whose model is no longer pooled builds
// a new device, and one whose model is pooled takes that device.
func TestIdleDevicesBounded(t *testing.T) {
	emptyPool()
	var released []*sim.Device
	for n := 1; n <= maxIdleDevices+1; n++ {
		p := NewProfiler(GTX1070().WithSMs(n))
		dev := p.takeDevice()
		p.releaseDevice(dev)
		released = append(released, dev)
	}
	if devs := idle(); !slices.Equal(devs, released[1:]) {
		t.Fatalf("the pool holds %d devices after %d releases; want the last %d, in release order", len(devs), len(released), maxIdleDevices)
	}
	if dev := NewProfiler(GTX1070().WithSMs(1)).takeDevice(); dev == released[0] || slices.Contains(idle(), dev) {
		t.Error("a profiler took the dropped device or another model's device")
	}
	if dev := NewProfiler(GTX1070().WithSMs(2)).takeDevice(); dev != released[1] || slices.Contains(idle(), dev) {
		t.Error("a profiler did not take the idle device of its model out of the pool")
	}
}

// TestDeviceOwnsItsSpec: a caller that edits the spec it profiled with, as
// cmd/whatif builds variants, neither changes the device the first run left
// idle nor gets that device for the edited model; a profiler on the original
// value then still takes it and reproduces the golden report.
func TestDeviceOwnsItsSpec(t *testing.T) {
	want, err := os.ReadFile(goldenPath("gtx1070", "rodinia/myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	spec := GTX1070()
	profileReport(t, NewProfiler(spec), "rodinia", "myocyte")
	original := idle()
	spec.L1Size *= 2
	profileReport(t, NewProfiler(spec), "rodinia", "myocyte")
	devs := idle()
	if len(original) != 1 || len(devs) != 2 || devs[0] != original[0] {
		t.Fatalf("the edited model's run took the original model's device (pool %d then %d devices)", len(original), len(devs))
	}
	if devs[0].Spec.L1Size != GTX1070().L1Size || devs[1].Spec.L1Size != spec.L1Size {
		t.Fatalf("device L1 sizes %d and %d, want %d and %d", devs[0].Spec.L1Size, devs[1].Spec.L1Size, GTX1070().L1Size, spec.L1Size)
	}
	if d := check.DiffJSON(want, profileReport(t, NewProfiler(GTX1070()), "rodinia", "myocyte")); d != "" {
		t.Errorf("the original model's run after an edited one diverged from its golden:\n%s", d)
	}
	if after := idle(); len(after) != 2 || after[1] != original[0] {
		t.Error("the original model's run did not take the original model's device")
	}
}

// TestPooledDeviceForgetsItsProfiler: a device that a profiler with a checker,
// a tracer and metrics, a logger, sampling and HWPM collection used last, in
// a run that ended with a panicked kernel, keeps none of those hooks while
// idle, and serves a plain profiler next. The plain run reproduces its golden
// report, reaches none of the first profiler's hooks, and builds no device.
func TestPooledDeviceForgetsItsProfiler(t *testing.T) {
	myocyte, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("gtx1070", "rodinia/myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	tr := NewTracer()
	var logged bytes.Buffer
	logger, err := NewLogger(&logged, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	first := NewProfiler(GTX1070(), WithChecks(true), WithObserver(tr, NewMetricsRegistry()),
		WithLogger(logger), WithSampling(3), WithHWPM())
	endsWild := &App{Name: "myocyte_wild", Suite: "test", Run: func(rc *workloads.RunCtx) error {
		if err := myocyte.Run(rc); err != nil {
			return err
		}
		return rc.Exec(wildLaunch())
	}}
	res, err := first.ProfileApp(context.Background(), endsWild)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("the first run isolated %d panicked kernels, want 1", len(res.Failed))
	}
	devs := idle()
	events, lines := tr.Len(), logged.Len()
	if len(devs) != 1 || events == 0 || lines == 0 {
		t.Fatalf("after the first run: %d idle devices, %d trace events, %d log bytes", len(devs), events, lines)
	}
	nop := kernel.NewBuilder("nop")
	nop.Exit()
	devs[0].MustLaunch(&kernel.Launch{Program: nop.MustBuild(), Grid: kernel.Dim3{X: 1}, Block: kernel.Dim3{X: 32}})
	if tr.Len() != events || logged.Len() != lines {
		t.Fatalf("a launch on the idle device reached the first profiler's tracer (%d → %d events) or logger (%d → %d bytes)",
			events, tr.Len(), lines, logged.Len())
	}
	if d := check.DiffJSON(want, profileReport(t, NewProfiler(GTX1070()), "rodinia", "myocyte")); d != "" {
		t.Errorf("the plain run on the pooled device diverged from its golden:\n%s", d)
	}
	if tr.Len() != events || logged.Len() != lines {
		t.Errorf("the plain run reached the first profiler's tracer (%d → %d events) or logger (%d → %d bytes)",
			events, tr.Len(), lines, logged.Len())
	}
	if after := idle(); len(after) != 1 || after[0] != devs[0] {
		t.Error("the plain run did not run on the pooled device")
	}
}

// TestProfileAppsReusesDevices: ProfileApps runs every golden-sample app
// twice on one profiler, its workers taking devices from and returning them
// to the pool concurrently. Both profiles of an app are byte-equal, and the
// pool, empty before, ends up holding no more devices than ProfileApps ran
// workers.
func TestProfileAppsReusesDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling skipped in -short mode")
	}
	var apps []*App
	for _, g := range gpu.IDs() {
		for _, id := range check.CorpusSample[g] {
			suite, name, _ := strings.Cut(id, "/")
			a, err := GetApp(suite, name)
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a)
		}
	}
	n := len(apps)
	apps = append(apps, apps...)
	emptyPool()
	p := NewProfiler(QuadroRTX4000().WithSMs(4))
	res, err := p.ProfileApps(context.Background(), apps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		first, err := check.ReportJSON(res[i].Report())
		if err != nil {
			t.Fatal(err)
		}
		second, err := check.ReportJSON(res[i+n].Report())
		if err != nil {
			t.Fatal(err)
		}
		if d := check.DiffJSON(first, second); d != "" {
			t.Errorf("the two profiles of %s differ:\n%s", apps[i].ID(), d)
		}
	}
	if workers, n := min(runtime.NumCPU(), len(apps)), len(idle()); n == 0 || n > workers {
		t.Errorf("the pool holds %d idle devices after %d workers ran, want 1..%d", n, workers, workers)
	}
}

// afterFirstLaunch is app with hook run after its first kernel launch; exec
// launches further kernels under the profiler.
func afterFirstLaunch(app *App, hook func(exec workloads.LaunchFunc) error) *App {
	return &App{Name: app.Name, Suite: app.Suite, Run: func(rc *workloads.RunCtx) error {
		exec, launched := rc.Exec, false
		rc.Exec = func(l *kernel.Launch) error {
			if err := exec(l); err != nil || launched {
				return err
			}
			launched = true
			return hook(exec)
		}
		return app.Run(rc)
	}}
}

// wildLaunch is a kernel whose every thread loads far outside device memory,
// so its simulation panics.
func wildLaunch() *kernel.Launch {
	b := kernel.NewBuilder("wild")
	b.Ldg(b.IMad(b.GlobalIDX(), b.MovImm(4), b.MovImm(1<<30)), 0, 4)
	b.Exit()
	return &kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 4}, Block: kernel.Dim3{X: 64}}
}

// cancelInLaunch is a device checker that cancels a run from its first
// in-loop epoch, so the cancellation lands inside the launch, blocks resident.
type cancelInLaunch struct{ cancel context.CancelFunc }

func (c cancelInLaunch) CheckEpoch(*sim.Device, uint64)          { c.cancel() }
func (c cancelInLaunch) CheckLaunch(*sim.Device, *sim.RunResult) {}

// TestFailedRunReturnsItsDevice: a run that is cancelled between launches or
// inside one, whose every kernel panics, that isolates one panicked kernel, or
// that panics on the host side gives its device back to the pool, and the
// next run on the same profiler takes that device and still reproduces its
// golden report.
func TestFailedRunReturnsItsDevice(t *testing.T) {
	myocyte, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("gtx1070", "rodinia/myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	emptyPool()
	p := NewProfiler(GTX1070())
	clean := func(after string) {
		t.Helper()
		devs := idle()
		if len(devs) != 1 {
			t.Fatalf("after %s the pool holds %d idle devices, want 1", after, len(devs))
		}
		if d := check.DiffJSON(want, profileReport(t, p, "rodinia", "myocyte")); d != "" {
			t.Errorf("the clean run after %s diverged from its golden:\n%s", after, d)
		}
		if now := idle(); len(now) != 1 || now[0] != devs[0] {
			t.Fatalf("the clean run after %s did not run on the device %s returned", after, after)
		}
	}
	profileReport(t, p, "rodinia", "myocyte")
	clean("a clean run")

	bg := context.Background()
	between, cancelBetween := context.WithCancel(bg)
	defer cancelBetween()
	inside, cancelInside := context.WithCancel(bg)
	defer cancelInside()
	wild := &App{Name: "wild", Suite: "test", Run: func(rc *workloads.RunCtx) error {
		rc.Dev.Storage.Write(rc.Dev.Alloc(4096), 0xBAD, 4)
		return rc.Exec(wildLaunch())
	}}
	spin := &App{Name: "spin", Suite: "test", Run: func(rc *workloads.RunCtx) error {
		b := kernel.NewBuilder("spin")
		b.For(0, b.MovImm(1<<40), 1)
		b.EndFor()
		b.Exit()
		rc.Dev.SetChecker(cancelInLaunch{cancelInside})
		return rc.Exec(&kernel.Launch{Program: b.MustBuild(), Grid: kernel.Dim3{X: 64}, Block: kernel.Dim3{X: 256}})
	}}
	for _, c := range []struct {
		name    string
		ctx     context.Context
		app     *App
		outcome string // "error", "isolated" or "panic"
		errText string // what an "error" outcome says
	}{
		{"a run cancelled between launches", between, afterFirstLaunch(myocyte, func(workloads.LaunchFunc) error { cancelBetween(); return nil }), "error", "context canceled"},
		{"a run cancelled inside a launch", inside, spin, "error", "cancelled after"},
		{"an all-kernels-panicked run", bg, wild, "error", "all 1 kernels failed"},
		{"a run isolating a panicked kernel", bg, afterFirstLaunch(myocyte, func(exec workloads.LaunchFunc) error { return exec(wildLaunch()) }), "isolated", ""},
		{"a host-side panic", bg, afterFirstLaunch(myocyte, func(workloads.LaunchFunc) error { panic("host-side failure") }), "panic", ""},
	} {
		var runErr error
		outcome := func() (outcome string) {
			defer func() {
				if recover() != nil {
					outcome = "panic"
				}
			}()
			res, err := p.ProfileApp(c.ctx, c.app)
			switch {
			case err != nil:
				runErr = err
				return "error"
			case len(res.Failed) > 0:
				return "isolated"
			}
			return "clean"
		}()
		if outcome != c.outcome {
			t.Fatalf("%s ended as %s, want %s", c.name, outcome, c.outcome)
		}
		if runErr != nil && !strings.Contains(runErr.Error(), c.errText) {
			t.Fatalf("%s failed with %q, want it to say %q", c.name, runErr, c.errText)
		}
		clean(c.name)
	}
}
