package gputopdown

import (
	"context"
	"fmt"
	"os"
	"testing"

	"gputopdown/internal/check"
)

// metamorphicRunner builds the check.Runner for one app on one device: each
// configuration gets a fresh profiler, an emptied process replay cache (so a
// cache-on run simulates every distinct launch itself instead of being served
// the previous configuration's results) and an empty device pool (so it runs
// on a new device), and returns the canonical report bytes. For the reused-device property the
// profiler first runs rodinia/pathfinder, which needs more registers and
// shared memory per block than any app the matrix profiles, so the app runs
// on that device reset.
func metamorphicRunner(t *testing.T, spec *GPUSpec, suite, app string) check.Runner {
	t.Helper()
	a, err := GetApp(suite, app)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := GetApp("rodinia", "pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return func(cfg check.Config) ([]byte, error) {
		opts := []Option{
			WithReplayCache(cfg.ReplayCache),
			WithChecks(cfg.Checks),
		}
		if cfg.Tracing {
			// At the profiler surface the tracing knob is the execution
			// tracer; it spans every session, pass, and launch.
			opts = append(opts, WithObserver(NewTracer(), nil))
		}
		if cfg.Observer {
			opts = append(opts, WithObserver(NewTracer(), NewMetricsRegistry()))
		}
		emptyPool()
		emptyReplayResults()
		p := NewProfiler(spec, opts...)
		if cfg.ReusedDevice {
			if _, err := p.ProfileApp(ctx, heavy); err != nil {
				return nil, err
			}
			if n := len(idle()); n != 1 {
				return nil, fmt.Errorf("%s left %d idle devices, want 1", heavy.ID(), n)
			}
		}
		res, err := p.ProfileApp(ctx, a)
		if err != nil {
			return nil, err
		}
		if err := p.CheckErr(); err != nil {
			return nil, err
		}
		return check.ReportJSON(res.Report())
	}
}

// TestMetamorphicProperties runs the full property table (internal/check):
// every schedule- or observation-only knob must leave the profiled report
// bit-identical. Reduced-SM devices keep the default run within tier-1
// budget; GOLDEN_FULL=1 (CI's conformance job) adds three rows and uses the
// full device models.
func TestMetamorphicProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling matrix skipped in -short mode")
	}
	full := os.Getenv("GOLDEN_FULL") != ""
	matrix := []struct {
		gpu, suite, app string
	}{
		{"rtx4000", "rodinia", "bfs"},
		{"gtx1070", "shoc", "triad"},
	}
	if full {
		matrix = append(matrix,
			struct{ gpu, suite, app string }{"rtx4000", "altis", "gups"},
			struct{ gpu, suite, app string }{"gtx1070", "rodinia", "hotspot"},
			struct{ gpu, suite, app string }{"rtx4000", "shoc", "spmv"},
		)
	}
	for _, m := range matrix {
		m := m
		t.Run(m.gpu+"_"+m.suite+"_"+m.app, func(t *testing.T) {
			spec, ok := LookupGPU(m.gpu)
			if !ok {
				t.Fatalf("unknown gpu %q", m.gpu)
			}
			if !full {
				spec = spec.WithSMs(4)
			}
			run := metamorphicRunner(t, spec, m.suite, m.app)
			if err := check.Metamorphic(run, check.Properties()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChecksCleanProfile asserts the invariant checker stays silent across a
// real profile through the Profiler on both devices — the in-loop laws hold
// on production workloads, not just unit fixtures. GOLDEN_FULL=1 sweeps
// every suite app on the full device models instead of the sample. The
// reference device needs no leg here: the engine-equivalence tests
// (internal/workloads, internal/cupti) run it with the checker attached and
// prove its counters equal.
func TestChecksCleanProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling skipped in -short mode")
	}
	full := os.Getenv("GOLDEN_FULL") != ""
	type job struct{ gpu, suite, app string }
	var jobs []job
	if full {
		for _, g := range []string{"gtx1070", "rtx4000"} {
			for _, s := range Suites() {
				for _, a := range SuiteApps(s) {
					jobs = append(jobs, job{g, s, a.Name})
				}
			}
		}
	} else {
		jobs = []job{
			{"rtx4000", "rodinia", "bfs"},
			{"gtx1070", "altis", "gups"},
		}
	}
	for _, j := range jobs {
		j := j
		t.Run(j.gpu+"_"+j.suite+"_"+j.app, func(t *testing.T) {
			spec, ok := LookupGPU(j.gpu)
			if !ok {
				t.Fatalf("unknown gpu %q", j.gpu)
			}
			if !full {
				spec = spec.WithSMs(4)
			}
			app, err := GetApp(j.suite, j.app)
			if err != nil {
				t.Fatal(err)
			}
			p := NewProfiler(spec, WithChecks(true))
			if _, err := p.ProfileApp(context.Background(), app); err != nil {
				t.Fatal(err)
			}
			if err := p.CheckErr(); err != nil {
				t.Fatalf("invariants violated: %v", err)
			}
		})
	}
}
