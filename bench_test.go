package gputopdown

// One benchmark per table and figure of the paper's evaluation (§V). Each
// benchmark regenerates its artefact on a downscaled device (full-fidelity
// regeneration is cmd/figures) and reports the figure's headline quantities
// as custom metrics, so `go test -bench=.` both exercises and summarises the
// reproduction. Ablation benchmarks at the bottom quantify the design
// choices DESIGN.md calls out (scheduler policy, collection mode,
// normalisation, replay cost). Wall-clock performance is not measured here:
// that is the repository benchmark (BENCHMARK.json, bench/).

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

const benchSMs = 2

// Suite profiles are memoised across benchmarks (figures 5-10 and 13 share
// suite runs, as cmd/figures does), so ns/op measures the first
// regeneration and later figures report their shape metrics from the cache.
var (
	suiteCacheMu sync.Mutex
	suiteCache   = map[string][]*AppResult{}
)

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

func mustSuite(b *testing.B, p *Profiler, suite string) []*AppResult {
	b.Helper()
	key := fmt.Sprintf("%s/%s/L%d", p.Spec().Name, suite, p.Level())
	suiteCacheMu.Lock()
	cached, ok := suiteCache[key]
	suiteCacheMu.Unlock()
	if ok {
		return cached
	}
	res, err := p.ProfileSuite(context.Background(), suite)
	if err != nil {
		b.Fatal(err)
	}
	suiteCacheMu.Lock()
	suiteCache[key] = res
	suiteCacheMu.Unlock()
	return res
}

func suiteAverages(results []*AppResult) (retire, divergence, frontend, backend, memShare, ovh float64) {
	n := float64(len(results))
	for _, r := range results {
		a := r.Aggregate
		retire += a.Fraction(a.Retire) / n
		divergence += a.Fraction(a.Divergence) / n
		frontend += a.Fraction(a.Frontend) / n
		backend += a.Fraction(a.Backend) / n
		if deg := a.Degradation(); deg > 0 {
			memShare += a.Memory / deg / n
		}
		ovh += r.Overhead() / n
	}
	return
}

// BenchmarkTable9GPUCharacteristics checks the two device models against the
// paper's Table IX (the data itself is asserted in internal/gpu tests).
func BenchmarkTable9GPUCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := LookupGPU("gtx1070")
		q, _ := LookupGPU("rtx4000")
		if g.SMs != 15 || q.SMs != 36 {
			b.Fatal("Table IX drifted")
		}
	}
	b.ReportMetric(4, "gtx1070_ipcmax")
	b.ReportMetric(2, "rtx4000_ipcmax")
}

// BenchmarkFig4BinaryPartitionCG regenerates the tile-size sweep. Shape:
// retire and divergence fall, backend/memory grows as tiles shrink.
func BenchmarkFig4BinaryPartitionCG(b *testing.B) {
	p := benchProfiler(b, "rtx4000", 2)
	var first, last *Analysis
	for i := 0; i < b.N; i++ {
		results := mustSuite(b, p, "cudasamples")
		first, last = results[0].Aggregate, results[len(results)-1].Aggregate
	}
	b.ReportMetric(100*first.Fraction(first.Retire), "tile32_retire_pct")
	b.ReportMetric(100*last.Fraction(last.Retire), "tile4_retire_pct")
	b.ReportMetric(100*first.Fraction(first.Memory), "tile32_memory_pct")
	b.ReportMetric(100*last.Fraction(last.Memory), "tile4_memory_pct")
	if last.Fraction(last.Retire) >= first.Fraction(first.Retire) {
		b.Error("fig4 shape: retire should fall as tiles shrink")
	}
	if last.Fraction(last.Memory) <= first.Fraction(first.Memory) {
		b.Error("fig4 shape: memory should grow as tiles shrink")
	}
}

// BenchmarkFig5RodiniaLevel1 regenerates Rodinia level 1 on both GPUs.
// Shape: Pascal frontend ~20%, Turing <10%, Turing backend larger.
func BenchmarkFig5RodiniaLevel1(b *testing.B) {
	var feP, feT, beP, beT float64
	for i := 0; i < b.N; i++ {
		pas := mustSuite(b, benchProfiler(b, "gtx1070", 2), "rodinia")
		tur := mustSuite(b, benchProfiler(b, "rtx4000", 3), "rodinia")
		_, _, feP, beP, _, _ = suiteAverages(pas)
		_, _, feT, beT, _, _ = suiteAverages(tur)
	}
	b.ReportMetric(100*feP, "pascal_frontend_pct")
	b.ReportMetric(100*feT, "turing_frontend_pct")
	b.ReportMetric(100*beP, "pascal_backend_pct")
	b.ReportMetric(100*beT, "turing_backend_pct")
	if feP <= feT {
		b.Error("fig5 shape: Pascal frontend share should exceed Turing's")
	}
	if beT <= beP {
		b.Error("fig5 shape: Turing backend share should exceed Pascal's")
	}
}

// BenchmarkFig6RodiniaLevel2 regenerates the level-2 Rodinia breakdown.
// Shape: memory dominates total IPC degradation (~70% in the paper).
func BenchmarkFig6RodiniaLevel2(b *testing.B) {
	var memShare float64
	for i := 0; i < b.N; i++ {
		res := mustSuite(b, benchProfiler(b, "rtx4000", 3), "rodinia")
		_, _, _, _, memShare, _ = suiteAverages(res)
	}
	b.ReportMetric(100*memShare, "memory_share_of_degradation_pct")
	if memShare < 0.4 {
		b.Errorf("fig6 shape: memory share %.2f below expectation", memShare)
	}
}

// BenchmarkFig7RodiniaLevel3 regenerates the level-3 memory breakdown.
// Shape: L1 (long scoreboard) dominant on average; myocyte and nn spike on
// the constant cache.
func BenchmarkFig7RodiniaLevel3(b *testing.B) {
	var l1, constShare, myocyteConst float64
	for i := 0; i < b.N; i++ {
		res := mustSuite(b, benchProfiler(b, "rtx4000", 3), "rodinia")
		l1, constShare, myocyteConst = 0, 0, 0
		for _, r := range res {
			a := r.Aggregate
			deg := a.Degradation()
			if deg <= 0 || a.MemoryDetail == nil {
				continue
			}
			l1 += a.MemoryDetail["long_scoreboard"] / deg / float64(len(res))
			constShare += a.MemoryDetail["imc_miss"] / deg / float64(len(res))
			if r.App == "myocyte" {
				myocyteConst = a.MemoryDetail["imc_miss"] / deg
			}
		}
	}
	b.ReportMetric(100*l1, "l1_share_pct")
	b.ReportMetric(100*constShare, "constant_share_pct")
	b.ReportMetric(100*myocyteConst, "myocyte_constant_pct")
	if l1 <= constShare {
		b.Error("fig7 shape: L1 should dominate the constant cache suite-wide")
	}
	if myocyteConst < 0.25 {
		b.Errorf("fig7 shape: myocyte constant share %.2f too low", myocyteConst)
	}
}

// BenchmarkFig8AltisLevel1 regenerates Altis level 1. Shape: backend
// dominant, frontend second, mandelbrot the retire leader (~70%).
func BenchmarkFig8AltisLevel1(b *testing.B) {
	var be, fe, div, mandel float64
	for i := 0; i < b.N; i++ {
		res := mustSuite(b, benchProfiler(b, "rtx4000", 3), "altis")
		_, div, fe, be, _, _ = suiteAverages(res)
		for _, r := range res {
			if r.App == "mandelbrot" {
				mandel = r.Aggregate.Fraction(r.Aggregate.Retire)
			}
		}
	}
	b.ReportMetric(100*be, "backend_pct")
	b.ReportMetric(100*fe, "frontend_pct")
	b.ReportMetric(100*div, "divergence_pct")
	b.ReportMetric(100*mandel, "mandelbrot_retire_pct")
	if be <= fe || be <= div {
		b.Error("fig8 shape: backend should dominate")
	}
}

// BenchmarkFig9AltisLevel2: memory ~70% of degradation, as in Rodinia.
func BenchmarkFig9AltisLevel2(b *testing.B) {
	var memShare float64
	for i := 0; i < b.N; i++ {
		res := mustSuite(b, benchProfiler(b, "rtx4000", 3), "altis")
		_, _, _, _, memShare, _ = suiteAverages(res)
	}
	b.ReportMetric(100*memShare, "memory_share_of_degradation_pct")
	if memShare < 0.4 {
		b.Errorf("fig9 shape: memory share %.2f below expectation", memShare)
	}
}

// BenchmarkFig10AltisLevel3: the constant cache becomes the top level-3
// contributor, driven by the ML apps (cnn, lstm).
func BenchmarkFig10AltisLevel3(b *testing.B) {
	var cnnConst, lstmConst, avgConst float64
	for i := 0; i < b.N; i++ {
		res := mustSuite(b, benchProfiler(b, "rtx4000", 3), "altis")
		cnnConst, lstmConst, avgConst = 0, 0, 0
		for _, r := range res {
			a := r.Aggregate
			deg := a.Degradation()
			if deg <= 0 || a.MemoryDetail == nil {
				continue
			}
			c := a.MemoryDetail["imc_miss"] / deg
			avgConst += c / float64(len(res))
			switch r.App {
			case "cnn":
				cnnConst = c
			case "lstm":
				lstmConst = c
			}
		}
	}
	b.ReportMetric(100*avgConst, "constant_share_pct")
	b.ReportMetric(100*cnnConst, "cnn_constant_pct")
	b.ReportMetric(100*lstmConst, "lstm_constant_pct")
	if cnnConst < 0.25 || lstmConst < 0.25 {
		b.Error("fig10 shape: ML apps should be constant-cache bound")
	}
}

func dynamicContrast(b *testing.B, kernelName string) (early, late float64, cyclesEarly, cyclesLate float64) {
	p := benchProfiler(b, "rtx4000", 1)
	res, err := p.ProfileApp(context.Background(), SradDynamic())
	if err != nil {
		b.Fatal(err)
	}
	s := res.Series(kernelName)
	q := len(s) / 4
	for _, a := range s[:q] {
		early += a.Fraction(a.Retire) / float64(q)
		cyclesEarly += a.Weight / float64(q)
	}
	for _, a := range s[len(s)-q:] {
		late += a.Fraction(a.Retire) / float64(q)
		cyclesLate += a.Weight / float64(q)
	}
	return
}

// BenchmarkFig11SradCuda1Dynamic: two phases across the 100 invocations.
func BenchmarkFig11SradCuda1Dynamic(b *testing.B) {
	var early, late, ce, cl float64
	for i := 0; i < b.N; i++ {
		early, late, ce, cl = dynamicContrast(b, "srad_cuda_1")
	}
	b.ReportMetric(100*early, "phase1_retire_pct")
	b.ReportMetric(100*late, "phase2_retire_pct")
	b.ReportMetric(ce/cl, "phase1_to_phase2_cycles_ratio")
	if ce <= cl {
		b.Error("fig11 shape: phase 1 should be the heavy phase")
	}
}

// BenchmarkFig12SradCuda2Dynamic: same for the second kernel.
func BenchmarkFig12SradCuda2Dynamic(b *testing.B) {
	var early, late, ce, cl float64
	for i := 0; i < b.N; i++ {
		early, late, ce, cl = dynamicContrast(b, "srad_cuda_2")
	}
	b.ReportMetric(100*early, "phase1_retire_pct")
	b.ReportMetric(100*late, "phase2_retire_pct")
	b.ReportMetric(ce/cl, "phase1_to_phase2_cycles_ratio")
	if ce <= cl {
		b.Error("fig12 shape: phase 1 should be the heavy phase")
	}
}

// BenchmarkFig13Overhead: level-3 profiling costs ~13x native on average
// with 8 replay passes per kernel (paper §V.E). A representative subset
// keeps the benchmark affordable; cmd/figures runs the full suites.
func BenchmarkFig13Overhead(b *testing.B) {
	apps := []string{"hotspot", "gaussian", "nw", "myocyte", "streamcluster", "srad_v1"}
	p := benchProfiler(b, "rtx4000", 3)
	var avg float64
	var passes int
	for i := 0; i < b.N; i++ {
		avg = 0
		for _, n := range apps {
			res := mustProfile(b, p, "rodinia", n)
			avg += res.Overhead() / float64(len(apps))
			passes = res.Passes
		}
	}
	b.ReportMetric(avg, "overhead_x")
	b.ReportMetric(float64(passes), "passes")
	if passes != 8 {
		b.Errorf("fig13: %d passes, want 8", passes)
	}
	if avg < 8 || avg > 30 {
		b.Errorf("fig13 shape: overhead %.1fx outside plausible band", avg)
	}
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
