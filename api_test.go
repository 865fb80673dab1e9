package gputopdown

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gputopdown/internal/kernel"
	"gputopdown/internal/workloads"
)

func TestNewProfilerEValidation(t *testing.T) {
	spec := QuadroRTX4000().WithSMs(4)
	cases := []struct {
		name string
		spec *GPUSpec
		opts []Option
		ok   bool
	}{
		{"valid defaults", spec, nil, true},
		{"valid full", spec, []Option{WithLevel(2), WithSampling(3), WithReplayCache(true)}, true},
		{"nil spec", nil, nil, false},
		{"level too low", spec, []Option{WithLevel(0)}, false},
		{"level too high", spec, []Option{WithLevel(4)}, false},
		{"negative sampling", spec, []Option{WithSampling(-1)}, false},
	}
	for _, c := range cases {
		p, err := NewProfilerE(c.spec, c.opts...)
		if c.ok && (err != nil || p == nil) {
			t.Errorf("%s: NewProfilerE = (%v, %v), want success", c.name, p, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: NewProfilerE accepted invalid options", c.name)
		}
	}
	// NewProfiler documents clamping for the same inputs.
	p := NewProfiler(spec, WithLevel(9), WithSampling(-3))
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
