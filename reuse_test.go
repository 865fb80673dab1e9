package gputopdown

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
	"gputopdown/internal/workloads"
)

// TestReusedProfilerAllocs: a profiler's second run of an application takes a
// reset device instead of building one, so it allocates a small fraction of
// what the first run, which built the device, allocated.
func TestReusedProfilerAllocs(t *testing.T) {
	app, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfiler(QuadroRTX4000())
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := p.ProfileApp(context.Background(), app); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := allocated(), allocated()
	if second*4 > first {
		t.Errorf("the second profile of %s allocated %d bytes, the first %d; want at most 25 %%", app.ID(), second, first)
	}
}

// TestProfileAppsReusesDevices: ProfileApps runs every golden-sample app
// twice on one profiler, its workers taking devices from and returning them
// to the profiler concurrently. Both profiles of an app are byte-equal, and
// the profiler ends up holding no more devices than ProfileApps ran workers.
func TestProfileAppsReusesDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling skipped in -short mode")
	}
	var apps []*App
	for _, g := range goldenGPUs {
		for _, id := range goldenSample[g] {
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
	if workers := min(runtime.NumCPU(), len(apps)); len(p.idle) == 0 || len(p.idle) > workers {
		t.Errorf("the profiler holds %d idle devices after %d workers ran, want 1..%d", len(p.idle), workers, workers)
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
// that panics on the host side gives its device back, and the next run on the
// same profiler takes that device and still reproduces its golden report.
func TestFailedRunReturnsItsDevice(t *testing.T) {
	myocyte, err := GetApp("rodinia", "myocyte")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("gtx1070", "rodinia", "myocyte"))
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfiler(GTX1070())
	clean := func(after string) {
		t.Helper()
		if len(p.idle) != 1 {
			t.Fatalf("after %s the profiler holds %d idle devices, want 1", after, len(p.idle))
		}
		dev := p.idle[0]
		if d := check.DiffJSON(want, profileReport(t, p, "rodinia", "myocyte")); d != "" {
			t.Errorf("the clean run after %s diverged from its golden:\n%s", after, d)
		}
		if len(p.idle) != 1 || p.idle[0] != dev {
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
