package gputopdown

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"gputopdown/internal/check"
)

func testProfiler(level int, opts ...Option) *Profiler {
	spec := QuadroRTX4000().WithSMs(4)
	return NewProfiler(spec, append([]Option{WithLevel(level)}, opts...)...)
}

func TestLookupHelpers(t *testing.T) {
	if _, ok := LookupGPU("gtx1070"); !ok {
		t.Error("gtx1070 missing")
	}
	if _, ok := LookupGPU("bogus"); ok {
		t.Error("bogus GPU found")
	}
	if _, ok := LookupApp("rodinia", "hotspot"); !ok {
		t.Error("rodinia/hotspot missing")
	}
	if len(Suites()) != 4 {
		t.Errorf("suites = %v", Suites())
	}
	for _, s := range Suites() {
		if len(SuiteApps(s)) == 0 {
			t.Errorf("suite %s empty", s)
		}
	}
}

func TestProfileAppLevel1(t *testing.T) {
	p := testProfiler(1)
	app, _ := LookupApp("rodinia", "hotspot")
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 1 {
		t.Errorf("level-1 profile used %d passes, want 1", res.Passes)
	}
	if len(res.Kernels) == 0 || res.Aggregate == nil {
		t.Fatal("empty result")
	}
	a := res.Aggregate
	if a.Retire <= 0 || a.Retire > a.IPCMax {
		t.Errorf("retire = %g", a.Retire)
	}
	// Level-1 closure: retire + divergence + stall == IPC_MAX.
	if got := a.Retire + a.Divergence + a.Stall; math.Abs(got-a.IPCMax) > 1e-6 {
		t.Errorf("level-1 closure: %g != %g", got, a.IPCMax)
	}
}

func TestProfileAppLevel3(t *testing.T) {
	p := testProfiler(3)
	app, _ := LookupApp("rodinia", "myocyte")
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 8 {
		t.Errorf("level-3 profile used %d passes, want 8 (paper §V.E)", res.Passes)
	}
	a := res.Aggregate
	if a.MemoryDetail == nil {
		t.Fatal("level-3 analysis missing memory detail")
	}
	// myocyte's signature: the constant cache dominates its memory stalls
	// (paper Fig. 7).
	if a.MemoryDetail["imc_miss"] < a.MemoryDetail["long_scoreboard"] {
		t.Errorf("myocyte: imc %g < L1 %g — constant bottleneck missing",
			a.MemoryDetail["imc_miss"], a.MemoryDetail["long_scoreboard"])
	}
	// Normalised stack closes.
	if got := a.Retire + a.Divergence + a.Frontend + a.Backend; math.Abs(got-a.IPCMax) > 1e-6 {
		t.Errorf("stack closure: %g != %g", got, a.IPCMax)
	}
	if res.Overhead() < float64(res.Passes) {
		t.Errorf("overhead %.1f below pass count %d", res.Overhead(), res.Passes)
	}
}

func TestProfilePascalCapsLevel(t *testing.T) {
	spec := GTX1070().WithSMs(4)
	p := NewProfiler(spec, WithLevel(3))
	app, _ := LookupApp("rodinia", "hotspot")
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregate
	if a.Tool != "nvprof" {
		t.Errorf("Pascal tool = %s", a.Tool)
	}
	if a.Level != 2 {
		t.Errorf("Pascal analysis level = %d, want 2", a.Level)
	}
	if a.MemoryDetail != nil {
		t.Error("Pascal produced level-3 detail")
	}
}

// sradDynamic resolves the standalone 100-invocation srad of Figs. 11-12.
func sradDynamic(t *testing.T) *App {
	t.Helper()
	a, err := GetApp("altis", "srad_dynamic")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDynamicSeries(t *testing.T) {
	p := testProfiler(1)
	res, err := p.ProfileApp(context.Background(), sradDynamic(t))
	if err != nil {
		t.Fatal(err)
	}
	names := res.KernelNames()
	if len(names) != 2 || names[0] != "srad_cuda_1" || names[1] != "srad_cuda_2" {
		t.Fatalf("kernel names = %v", names)
	}
	s1 := res.Series("srad_cuda_1")
	if len(s1) != 100 {
		t.Fatalf("srad_cuda_1 has %d invocations, want 100", len(s1))
	}
	// Phase behaviour: the last quarter must differ measurably from the
	// first quarter (paper Figs. 11-12).
	avg := func(as []*Analysis, f func(*Analysis) float64) float64 {
		var t float64
		for _, a := range as {
			t += f(a)
		}
		return t / float64(len(as))
	}
	early := avg(s1[:25], func(a *Analysis) float64 { return a.Fraction(a.Retire) })
	late := avg(s1[75:], func(a *Analysis) float64 { return a.Fraction(a.Retire) })
	if math.Abs(early-late) < 0.05 {
		t.Errorf("no phase contrast: early retire %.3f vs late %.3f", early, late)
	}
	if res.Series("nope") != nil {
		t.Error("bogus kernel produced a series")
	}
}

func TestProfileAppsParallelDeterministic(t *testing.T) {
	p := testProfiler(2)
	apps := []*App{}
	for _, n := range []string{"hotspot", "nw", "huffman"} {
		a, _ := LookupApp("rodinia", n)
		apps = append(apps, a)
	}
	r1, err := p.ProfileApps(context.Background(), apps)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.ProfileApps(context.Background(), apps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].App != apps[i].Name {
			t.Errorf("result %d order broken: %s", i, r1[i].App)
		}
		a, b := r1[i].Aggregate, r2[i].Aggregate
		if a.Retire != b.Retire || a.Memory != b.Memory || r1[i].NativeCycles != r2[i].NativeCycles {
			t.Errorf("%s: parallel profiling nondeterministic", r1[i].App)
		}
	}
}

func TestProfileSuiteUnknown(t *testing.T) {
	if _, err := testProfiler(1).ProfileSuite(context.Background(), "nope"); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestRunNativeFasterThanProfiled(t *testing.T) {
	app, _ := LookupApp("rodinia", "nw")
	res, err := testProfiler(3).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if res.NativeCycles == 0 {
		t.Fatal("no native cycles")
	}
	if res.NativeCycles >= res.ProfiledCycles {
		t.Errorf("profiling added no overhead: native %d, profiled %d", res.NativeCycles, res.ProfiledCycles)
	}
}

func TestRawEquationsLeaveResidual(t *testing.T) {
	app, _ := LookupApp("rodinia", "hotspot")
	raw, err := testProfiler(2, WithRawEquations()).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	a := raw.Aggregate
	if a.Normalized {
		t.Error("raw mode still normalised")
	}
	// Raw eq (8)-(14): FE+BE <= stall (residual lives in unlisted states).
	if a.Frontend+a.Backend > a.Stall+1e-9 {
		t.Errorf("raw FE+BE %g exceeds stall %g", a.Frontend+a.Backend, a.Stall)
	}
}

func TestHWPMMode(t *testing.T) {
	app, _ := LookupApp("rodinia", "hotspot")
	res, err := testProfiler(1, WithHWPM()).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	smpc, err := testProfiler(1).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	// Sampled estimate within 2x of full collection for a regular kernel.
	r1, r2 := res.Aggregate.Retire, smpc.Aggregate.Retire
	if r1 < r2/2 || r1 > r2*2 {
		t.Errorf("HWPM retire %g vs SMPC %g", r1, r2)
	}
}

func TestOverheadAboutThirteenX(t *testing.T) {
	// The paper's Fig. 13 headline: level-3 profiling costs ~13x native,
	// with ~8 passes. Allow a generous band on the small test device.
	p := testProfiler(3)
	var ratios []float64
	for _, n := range []string{"hotspot", "huffman", "nw", "streamcluster"} {
		app, _ := LookupApp("rodinia", n)
		res, err := p.ProfileApp(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, res.Overhead())
	}
	var avg float64
	for _, r := range ratios {
		avg += r / float64(len(ratios))
	}
	if avg < 8 || avg > 25 {
		t.Errorf("average overhead %.1fx outside the plausible band [8,25]", avg)
	}
}

func TestWithSamplingFacade(t *testing.T) {
	p := testProfiler(3, WithSampling(10))
	res, err := p.ProfileApp(context.Background(), sradDynamic(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := testProfiler(3).ProfileApp(context.Background(), sradDynamic(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead() >= full.Overhead()/2 {
		t.Errorf("sampling overhead %.1fx not well below full %.1fx",
			res.Overhead(), full.Overhead())
	}
	if len(res.Kernels) != len(full.Kernels) {
		t.Errorf("sampling changed invocation count: %d vs %d",
			len(res.Kernels), len(full.Kernels))
	}
}

// TestSHOCBottleneckAttribution uses SHOC's microbenchmark-grade members as
// an oracle for the Top-Down attribution itself: each app has one sharply
// defined bottleneck by construction, and the analysis must land on it.
func TestSHOCBottleneckAttribution(t *testing.T) {
	p := testProfiler(3)
	profile := func(name string) *Analysis {
		app, ok := LookupApp("shoc", name)
		if !ok {
			t.Fatalf("shoc/%s missing", name)
		}
		res, err := p.ProfileApp(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		return res.Aggregate
	}

	// triad: pure streaming — memory must dominate the degradation.
	if a := profile("triad"); a.Memory < a.Degradation()/2 {
		t.Errorf("triad: memory %.2f below half of degradation %.2f", a.Memory, a.Degradation())
	}
	// md5hash: register-resident integer mixing — retire-led, minimal memory.
	if a := profile("md5hash"); a.Fraction(a.Retire) < 0.5 || a.Memory > a.Retire {
		t.Errorf("md5hash: retire %.2f / memory %.2f not compute-shaped",
			a.Fraction(a.Retire), a.Fraction(a.Memory))
	}
	// scan: barrier-phased — the fetch group (which holds barrier stalls)
	// must be a visible frontend contributor.
	if a := profile("scan"); a.FetchDetail["barrier"] <= 0 {
		t.Error("scan shows no barrier stalls")
	}
	// neuralnet: constant weights — imc_miss must lead its memory detail.
	if a := profile("neuralnet"); a.MemoryDetail["imc_miss"] < a.MemoryDetail["long_scoreboard"] {
		t.Errorf("neuralnet: imc %.3f below L1 %.3f",
			a.MemoryDetail["imc_miss"], a.MemoryDetail["long_scoreboard"])
	}
	// spmv: irregular gathers — long scoreboard leads.
	if a := profile("spmv"); a.MemoryDetail["long_scoreboard"] < a.MemoryDetail["imc_miss"] {
		t.Error("spmv not L1-latency shaped")
	}
	// s3d: transcendental-heavy — the core group must be a major share.
	if a := profile("s3d"); a.Core < a.Degradation()/5 {
		t.Errorf("s3d: core %.2f below a fifth of degradation %.2f", a.Core, a.Degradation())
	}
}

func TestTimelineIntraKernelPhases(t *testing.T) {
	// srad_cuda_1 on the dynamic app: intervals must exist, cover the
	// launch, and carry well-formed analyses.
	p := testProfiler(2)
	app, _ := LookupApp("rodinia", "hotspot")
	points, err := p.Timeline(context.Background(), app, "calculate_temp", 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("only %d timeline points", len(points))
	}
	for i, pt := range points {
		a := pt.Analysis
		if a.Retire < 0 || a.Retire > a.IPCMax {
			t.Errorf("point %d: retire %g out of range", i, a.Retire)
		}
		if pt.Interval != 200 {
			t.Errorf("point %d: interval %d", i, pt.Interval)
		}
		if i > 0 && pt.StartCycle <= points[i-1].StartCycle {
			t.Errorf("points not ordered at %d", i)
		}
	}
	// Errors surface for unknown kernels and out-of-range invocations.
	if _, err := p.Timeline(context.Background(), app, "nope", 0, 200); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := p.Timeline(context.Background(), app, "calculate_temp", 99, 200); err == nil {
		t.Error("out-of-range invocation accepted")
	}
	if _, err := p.Timeline(context.Background(), app, "calculate_temp", 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

// TestConcurrentProfilesShareRegistries: the analyzers of profiles running
// at once on both GPUs read the process's two metric registries, one per
// tool. Under -race this fails if a profile writes to one; each concurrent
// report must equal the same profile run alone.
func TestConcurrentProfilesShareRegistries(t *testing.T) {
	myocyte, _ := LookupApp("rodinia", "myocyte")
	apps := []*App{myocyte}
	specs := []*GPUSpec{QuadroRTX4000().WithSMs(2), GTX1070().WithSMs(2)}
	report := func(spec *GPUSpec) ([]byte, error) {
		res, err := NewProfiler(spec, WithLevel(3)).ProfileApps(context.Background(), apps)
		if err != nil {
			return nil, err
		}
		return check.ReportJSON(res[0].Report())
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = report(spec); err != nil {
			t.Fatal(err)
		}
	}
	const perGPU = 2
	got := make([][]byte, perGPU*len(specs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = report(specs[i%len(specs)])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[i%len(specs)]) {
			t.Errorf("%s: concurrent report differs from the sequential one", specs[i%len(specs)].Name)
		}
	}
}
