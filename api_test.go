package gputopdown

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/serve"
	"gputopdown/internal/workloads"
)

// TestJobOptionsValidation: JobOptions rejects the settings a job request may
// not carry, with the daemon's ErrBadRequest, and maps the rest; a zero
// field (level 0 among them) keeps the profiler default.
func TestJobOptionsValidation(t *testing.T) {
	spec := QuadroRTX4000().WithSMs(4)
	on := true
	cases := []struct {
		name  string
		req   JobRequest
		ok    bool
		level int // the built profiler's level when ok
	}{
		{"defaults", JobRequest{}, true, 3},
		{"level 0 is the default", JobRequest{Level: 0}, true, 3},
		{"full", JobRequest{Level: 2, Mode: "hwpm", RawEquations: true, SampleEvery: 3, ReplayCache: &on}, true, 2},
		{"level too low", JobRequest{Level: -1}, false, 0},
		{"level too high", JobRequest{Level: 4}, false, 0},
		{"unknown mode", JobRequest{Mode: "pcie"}, false, 0},
		{"negative sampling", JobRequest{SampleEvery: -1}, false, 0},
	}
	for _, c := range cases {
		opts, err := JobOptions(&c.req)
		if !c.ok {
			if !errors.Is(err, serve.ErrBadRequest) {
				t.Errorf("%s: JobOptions = %v, want an ErrBadRequest", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: JobOptions = %v, want success", c.name, err)
			continue
		}
		if p := NewProfiler(spec, opts...); p.Level() != c.level {
			t.Errorf("%s: profiler level %d, want %d", c.name, p.Level(), c.level)
		}
	}
	opts, err := JobOptions(&cases[2].req)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfiler(spec, opts...)
	if p.mode != cupti.ModeHWPM || p.normalize || p.sampleEvery != 3 || !p.cacheOn {
		t.Errorf("settings not applied: mode %v, normalize %v, sampleEvery %d, cache %v", p.mode, p.normalize, p.sampleEvery, p.cacheOn)
	}
	// NewProfiler documents clamping for out-of-range options.
	p = NewProfiler(spec, WithLevel(9), WithSampling(-3))
	if p.Level() < 1 || p.Level() > 3 {
		t.Errorf("clamped level = %d", p.Level())
	}
	if p.sampleEvery != 0 {
		t.Errorf("clamping left sampleEvery=%d", p.sampleEvery)
	}
}

func TestGetAppTypedErrors(t *testing.T) {
	if _, err := GetApp("rodinia", "hotspot"); err != nil {
		t.Fatalf("GetApp(rodinia, hotspot) = %v", err)
	}
	_, err := GetApp("nosuite", "hotspot")
	if !errors.Is(err, ErrUnknownSuite) {
		t.Fatalf("unknown suite error = %v, want ErrUnknownSuite", err)
	}
	_, err = GetApp("rodinia", "noapp")
	if !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app error = %v, want ErrUnknownApp", err)
	}
	if _, err := NewProfiler(QuadroRTX4000().WithSMs(2)).ProfileSuite(context.Background(), "nosuite"); !errors.Is(err, ErrUnknownSuite) {
		t.Fatalf("ProfileSuite error = %v, want ErrUnknownSuite", err)
	}
}

// TestGetAppStandalone: the two apps no suite lists resolve by name, and the
// altis suite (whose averages Figs. 8-10 and 13 print) lists neither.
func TestGetAppStandalone(t *testing.T) {
	for _, name := range []string{"srad_dynamic", "gemm_autotune"} {
		a, err := GetApp("altis", name)
		if err != nil || a.ID() != "altis/"+name {
			t.Errorf("GetApp(altis, %s) = %v, %v", name, a, err)
		}
		for _, s := range SuiteApps("altis") {
			if s.Name == name {
				t.Errorf("SuiteApps(altis) lists %s", name)
			}
		}
	}
	if _, err := GetApp("rodinia", "srad_dynamic"); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("GetApp(rodinia, srad_dynamic) = %v, want ErrUnknownApp", err)
	}
}

func TestProfileAppNoKernels(t *testing.T) {
	empty := &App{Name: "empty", Suite: "test", Run: func(*workloads.RunCtx) error { return nil }}
	_, err := testProfiler(1).ProfileApp(context.Background(), empty)
	if !errors.Is(err, ErrNoKernels) {
		t.Fatalf("empty app error = %v, want ErrNoKernels", err)
	}
}

// TestProfileAppsJoinsErrors: a failing app mid-list must not abort the
// others — every failure is aggregated via errors.Join and the successful
// results are returned at their input positions.
func TestProfileAppsJoinsErrors(t *testing.T) {
	hotspot, _ := LookupApp("rodinia", "hotspot")
	boomA := &App{Name: "boomA", Suite: "test", Run: func(*workloads.RunCtx) error { return fmt.Errorf("boom A") }}
	boomB := &App{Name: "boomB", Suite: "test", Run: func(*workloads.RunCtx) error { return fmt.Errorf("boom B") }}
	apps := []*App{boomA, hotspot, boomB}

	results, err := testProfiler(1).ProfileApps(context.Background(), apps)
	if err == nil {
		t.Fatal("ProfileApps swallowed the failures")
	}
	for _, want := range []string{"test/boomA", "boom A", "test/boomB", "boom B"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
	if len(results) != 3 || results[0] != nil || results[2] != nil {
		t.Fatalf("results = %v, want nil at failed indices", results)
	}
	if results[1] == nil || results[1].App != "hotspot" {
		t.Fatalf("mid-list success missing: %+v", results[1])
	}
}

func TestProfileAppsEdgeCases(t *testing.T) {
	p := testProfiler(1)
	// Empty list: no error, no results.
	results, err := p.ProfileApps(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty list = (%v, %v)", results, err)
	}
	// More workers than apps (NumCPU > 1 on CI runners): order preserved.
	names := []string{"hotspot", "nw"}
	var apps []*App
	for _, n := range names {
		a, _ := LookupApp("rodinia", n)
		apps = append(apps, a)
	}
	results, err = p.ProfileApps(context.Background(), apps)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.App != names[i] {
			t.Errorf("results[%d] = %s, want %s (order lost)", i, r.App, names[i])
		}
	}
}

func TestProfileAppCtxCancellation(t *testing.T) {
	app, _ := LookupApp("rodinia", "hotspot")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := testProfiler(1).ProfileApp(ctx, app); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ProfileApp = %v, want context.Canceled", err)
	}
	if _, err := testProfiler(1).ProfileApps(ctx, []*App{app}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ProfileApps = %v, want context.Canceled", err)
	}
	if _, err := testProfiler(1).Timeline(ctx, app, "hotspot", 0, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Timeline = %v, want context.Canceled", err)
	}
}

func TestKernelErrorSurfacesThroughProfiler(t *testing.T) {
	// An app whose kernel launch is invalid: the failure must surface as a
	// *KernelError through every wrapping layer.
	bad := &App{Name: "bad", Suite: "test", Run: func(ctx *workloads.RunCtx) error {
		b := kernel.NewBuilder("badkernel")
		b.Exit()
		return ctx.Exec(&kernel.Launch{
			Program: b.MustBuild(),
			Grid:    kernel.Dim3{X: 1},
			Block:   kernel.Dim3{X: 4 * kernel.MaxBlockThreads}, // invalid
		})
	}}
	_, err := testProfiler(1).ProfileApp(context.Background(), bad)
	if err == nil {
		t.Fatal("invalid launch profiled without error")
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("error %v does not unwrap to *KernelError", err)
	}
	if ke.Kernel == "" {
		t.Fatal("KernelError lost the kernel name")
	}
}

// TestDeterminismAutotuneCache pins the cache's hot path on the workload it
// exists for: repeated byte-identical launches (a small GemmAutotune
// instance). Every invocation's analysis, the pass count and the Fig. 13
// cycle totals must match the uncached profiler bit for bit even though all
// but the first two invocations replay from the cache. Under sampling the
// cache must stand aside: a hit leaves L1 and L2 as the launch before it
// left them, and the native invocation after it runs on them unflushed.
func TestDeterminismAutotuneCache(t *testing.T) {
	for _, tc := range []struct {
		name                string
		spec                *GPUSpec
		dim, reps, sampling int
	}{
		{"rtx4000-4sm", QuadroRTX4000().WithSMs(4), 64, 8, 1},
		{"gtx1070-sampling-2", GTX1070(), 128, 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := workloads.GemmAutotuneSized(tc.dim, tc.reps)
			opts := []Option{WithLevel(3), WithSampling(tc.sampling)}
			want, err := NewProfiler(tc.spec, opts...).ProfileApp(context.Background(), app)
			if err != nil {
				t.Fatal(err)
			}
			emptyReplayResults() // every invocation after the first two is a hit
			got, err := NewProfiler(tc.spec, append(opts, WithReplayCache(true))...).ProfileApp(context.Background(), app)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Kernels) != tc.reps {
				t.Fatalf("got %d invocations, want %d", len(want.Kernels), tc.reps)
			}
			want.WallSeconds, got.WallSeconds = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Errorf("cached autotune profile diverged from uncached: native cycles %d, want %d",
					got.NativeCycles, want.NativeCycles)
			}
		})
	}
}
