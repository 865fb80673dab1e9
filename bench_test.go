package gputopdown

// The paper's figures are computed by internal/paper, and their §V claims
// are checked over the golden corpus by TestPaperClaims. What stays here are
// ablations that quantify the design choices DESIGN.md calls out (scheduler
// policy, collection mode, normalisation, replay cost), each on a downscaled
// device with its headline quantities as custom metrics. Wall-clock
// performance is not measured here: that is the repository benchmark
// (BENCHMARK.json, bench/).

import (
	"context"
	"testing"
)

const benchSMs = 2

func benchProfiler(b *testing.B, gpuID string, level int, opts ...Option) *Profiler {
	b.Helper()
	spec, ok := LookupGPU(gpuID)
	if !ok {
		b.Fatalf("unknown gpu %s", gpuID)
	}
	return NewProfiler(spec.WithSMs(benchSMs), append([]Option{WithLevel(level)}, opts...)...)
}

func mustProfile(b *testing.B, p *Profiler, suite, name string) *AppResult {
	b.Helper()
	app, ok := LookupApp(suite, name)
	if !ok {
		b.Fatalf("unknown app %s/%s", suite, name)
	}
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---- Ablations (design choices called out in DESIGN.md) ----

// BenchmarkAblationSchedulerPolicy compares greedy-then-oldest against
// loose round-robin warp scheduling.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	run := func(policy string) uint64 {
		spec, _ := LookupGPU("rtx4000")
		spec = spec.WithSMs(benchSMs)
		spec.SchedulingPolicy = policy
		p := NewProfiler(spec, WithLevel(1))
		app, _ := LookupApp("rodinia", "hotspot")
		res, err := p.ProfileApp(context.Background(), app)
		if err != nil {
			b.Fatal(err)
		}
		return res.NativeCycles
	}
	var gto, lrr uint64
	for i := 0; i < b.N; i++ {
		gto = run("gto")
		lrr = run("lrr")
	}
	b.ReportMetric(float64(gto), "gto_cycles")
	b.ReportMetric(float64(lrr), "lrr_cycles")
}

// BenchmarkAblationCollectionMode compares SMPC full collection against
// HWPM single-SM sampling.
func BenchmarkAblationCollectionMode(b *testing.B) {
	var smpc, hwpm float64
	for i := 0; i < b.N; i++ {
		smpc = mustProfile(b, benchProfiler(b, "rtx4000", 1), "rodinia", "hotspot").Aggregate.Retire
		hwpm = mustProfile(b, benchProfiler(b, "rtx4000", 1, WithHWPM()), "rodinia", "hotspot").Aggregate.Retire
	}
	b.ReportMetric(smpc, "smpc_retire_ipc")
	b.ReportMetric(hwpm, "hwpm_retire_ipc")
}

// BenchmarkAblationNormalisation compares the normalised stack against the
// paper's raw equations (8)-(14), whose components leave a residual.
func BenchmarkAblationNormalisation(b *testing.B) {
	var normClose, rawClose float64
	for i := 0; i < b.N; i++ {
		n := mustProfile(b, benchProfiler(b, "rtx4000", 2), "rodinia", "hotspot").Aggregate
		r := mustProfile(b, benchProfiler(b, "rtx4000", 2, WithRawEquations()), "rodinia", "hotspot").Aggregate
		normClose = (n.Retire + n.Divergence + n.Frontend + n.Backend) / n.IPCMax
		rawClose = (r.Retire + r.Divergence + r.Frontend + r.Backend) / r.IPCMax
	}
	b.ReportMetric(100*normClose, "normalised_stack_pct")
	b.ReportMetric(100*rawClose, "raw_stack_pct")
}

// BenchmarkAblationPassCount quantifies how the analysis level drives the
// replay cost: level 1 is single-pass, level 3 needs 8.
func BenchmarkAblationPassCount(b *testing.B) {
	var p1, p3, o1, o3 float64
	for i := 0; i < b.N; i++ {
		r1 := mustProfile(b, benchProfiler(b, "rtx4000", 1), "rodinia", "nw")
		r3 := mustProfile(b, benchProfiler(b, "rtx4000", 3), "rodinia", "nw")
		p1, p3 = float64(r1.Passes), float64(r3.Passes)
		o1, o3 = r1.Overhead(), r3.Overhead()
	}
	b.ReportMetric(p1, "level1_passes")
	b.ReportMetric(p3, "level3_passes")
	b.ReportMetric(o1, "level1_overhead_x")
	b.ReportMetric(o3, "level3_overhead_x")
}
