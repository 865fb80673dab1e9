package gputopdown

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/kernel"
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

// TestFailedRunDropsItsDevice: a run that is cancelled, whose every kernel
// panics, that isolates one panicked kernel, or that panics on the host side
// leaves its device out of the profiler's idle list, and the next clean run on
// the same profiler still reproduces its golden report.
func TestFailedRunDropsItsDevice(t *testing.T) {
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
		if d := check.DiffJSON(want, profileReport(t, p, "rodinia", "myocyte")); d != "" {
			t.Errorf("the clean run after %s diverged from its golden:\n%s", after, d)
		}
		if len(p.idle) != 1 {
			t.Fatalf("after a clean run the profiler holds %d idle devices, want 1", len(p.idle))
		}
	}
	clean("the first")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bg := context.Background()
	wild := &App{Name: "wild", Suite: "test", Run: func(rc *workloads.RunCtx) error {
		rc.Dev.Storage.Write(rc.Dev.Alloc(4096), 0xBAD, 4)
		return rc.Exec(wildLaunch())
	}}
	for _, c := range []struct {
		name    string
		ctx     context.Context
		app     *App
		outcome string // "error", "isolated" or "panic"
	}{
		{"a cancelled run", ctx, afterFirstLaunch(myocyte, func(workloads.LaunchFunc) error { cancel(); return nil }), "error"},
		{"an all-kernels-panicked run", bg, wild, "error"},
		{"a run isolating a panicked kernel", bg, afterFirstLaunch(myocyte, func(exec workloads.LaunchFunc) error { return exec(wildLaunch()) }), "isolated"},
		{"a host-side panic", bg, afterFirstLaunch(myocyte, func(workloads.LaunchFunc) error { panic("host-side failure") }), "panic"},
	} {
		outcome := func() (outcome string) {
			defer func() {
				if recover() != nil {
					outcome = "panic"
				}
			}()
			res, err := p.ProfileApp(c.ctx, c.app)
			switch {
			case err != nil:
				return "error"
			case len(res.Failed) > 0:
				return "isolated"
			}
			return "clean"
		}()
		if outcome != c.outcome {
			t.Fatalf("%s ended as %s, want %s", c.name, outcome, c.outcome)
		}
		if len(p.idle) != 0 {
			t.Errorf("%s returned its device to the profiler", c.name)
		}
		clean(c.name)
	}
}
